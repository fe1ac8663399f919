package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

// suiteOptions selects a whole-suite run.
type suiteOptions struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Repeat  int
	Preset  string
	OutDir  string
}

// Env records where the numbers were taken, so nobody reads a 2-core run
// as a scaling result.
type Env struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	FarmWorkers int     `json:"farm_workers"`
	CPUModel    string  `json:"cpu_model"`
	SIMD        string  `json:"simd"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"window_seconds"`
	Repeat      int     `json:"repeat"`
	Preset      string  `json:"preset"`
	When        string  `json:"when"`
}

func readEnv(o suiteOptions) Env {
	e := Env{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), FarmWorkers: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", SIMD: tensor.SIMDLevel(), GoVersion: runtime.Version(), GitCommit: "unknown",
		Seed: o.Seed, Seconds: o.Seconds, Repeat: o.Repeat, Preset: o.Preset, When: time.Now().UTC().Format(time.RFC3339)}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				e.GitCommit = kv.Value
			}
		}
	}
	return e
}

// Summary is one (workload, metric) cell: the median and quartiles of its
// runs. Quartiles follow Python's statistics.quantiles(values, n=4).
type Summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarise(values []float64) Summary {
	s := Summary{Median: median(values), N: len(values), Values: values}
	s.Q1, s.Q3 = s.Median, s.Median
	if len(values) >= 2 {
		s.Q1, s.Q3 = quartiles(values)
	}
	return s
}

// spread is the interquartile distance as a share of the median.
func (s Summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(data, n=4) does (the "exclusive" method); it needs
// two values or more.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// Results is the one post-processable file a suite run leaves behind.
type Results struct {
	Schema struct {
		EndToEnd  []Metric       `json:"end_to_end"`
		PerLayer  []Metric       `json:"per_layer"`
		Workloads []WorkloadSpec `json:"workloads"`
	} `json:"schema"`
	Env     Env                           `json:"env"`
	Runs    []*Result                     `json:"runs"`
	Summary map[string]map[string]Summary `json:"summary"`
}

// runSuite runs every workload in its own child process — so peak RSS, CPU
// time and the process-wide telemetry registry never bleed from one
// workload into the next — Repeat times untraced and, with Trace, Repeat
// times traced; prints every metric by name and unit; writes
// <out>/results.json; and fails if any run's oracle failed.
func runSuite(o suiteOptions) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.OutDir, 0o755); err != nil {
		return err
	}
	res := &Results{Env: readEnv(o), Summary: map[string]map[string]Summary{}}
	res.Schema.EndToEnd, res.Schema.PerLayer, res.Schema.Workloads = endToEnd, perLayer, workloadSpecs
	fmt.Printf("bifrost benchmark: %d workloads, window %gs, repeat %d, seed %d, preset %s\n", len(workloadSpecs), o.Seconds, o.Repeat, o.Seed, o.Preset)
	fmt.Printf("env: %d cores (GOMAXPROCS %d, farm workers %d), %s, SIMD %s, %s, commit %s\n",
		res.Env.NProc, res.Env.GOMAXPROCS, res.Env.FarmWorkers, res.Env.CPUModel, res.Env.SIMD, res.Env.GoVersion, res.Env.GitCommit)
	fmt.Println("note: simulated cycle counts are not validated against real STONNE (the repository holds no reference data); host times are this machine's.")
	allCorrect := true
	traces := []bool{false}
	if o.Trace {
		traces = append(traces, true)
	}
	for _, w := range workloadSpecs {
		values := map[string][]float64{}
		for _, traced := range traces {
			for r := 0; r < o.Repeat; r++ {
				file := filepath.Join(o.OutDir, fmt.Sprintf("run-%s-%v-%d.json", w.Name, traced, r))
				args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.Seed), "-seconds", fmt.Sprint(o.Seconds),
					"-preset", o.Preset, "-out", o.OutDir, "-result", file, "-trace", "0"}
				if traced {
					args[len(args)-1] = "1"
				}
				cmd := exec.Command(self, args...)
				cmd.Stderr = os.Stderr
				out, runErr := cmd.Output()
				b, err := os.ReadFile(file)
				if err != nil {
					return fmt.Errorf("%s: %v (child: %v, output %q)", w.Name, err, runErr, out)
				}
				os.Remove(file)
				run := new(Result)
				if err := json.Unmarshal(b, run); err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				res.Runs = append(res.Runs, run)
				allCorrect = allCorrect && run.Correct
				for name, v := range run.Metrics {
					if traced && name == "sim_cycles_total" {
						continue // the untraced pass owns the end-to-end metrics
					}
					values[name] = append(values[name], v)
				}
			}
		}
		res.Summary[w.Name] = map[string]Summary{}
		for name, vs := range values {
			res.Summary[w.Name][name] = summarise(vs)
		}
		printWorkload(w, res.Summary[w.Name])
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.OutDir, "results.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	if !allCorrect {
		return fmt.Errorf("the correctness oracle failed on at least one run (failed_ratio > 0)")
	}
	return nil
}

// paperFigures are printed beside the tuning speed-ups.
var paperFigures = map[string]string{"autotune.speedup_conv_x": "  (paper: 50x)", "autotune.speedup_fc_x": "  (paper: 11x)"}

func printWorkload(w WorkloadSpec, cells map[string]Summary) {
	fmt.Printf("\n%s — %d client(s); request = %s; op = %s\n", w.Name, w.Clients, w.Request, w.Op)
	row := func(m Metric) {
		c, ok := cells[m.Name]
		if !ok {
			return
		}
		fmt.Printf("  %-34s %14.6g %-7s [q1 %.6g, q3 %.6g, n=%d]%s\n", m.Name, c.Median, m.Unit, c.Q1, c.Q3, c.N, paperFigures[m.Name])
	}
	for _, m := range endToEnd {
		row(m)
	}
	for _, m := range perLayer {
		row(m)
	}
}
