// Command benchmark is the repository's one layered benchmark: five named
// workloads from a full AlexNet run to a replicated cluster sweep, seven
// end-to-end metrics, and per-layer attribution from a separate traced
// pass. See README.md in this directory.
//
//	go run -C benchmark .                      # every workload, -repeat 3, results in out/results.json
//	go run -C benchmark . -trace 1             # the same, plus the traced pass per workload
//	go run -C benchmark . -workload NAME ...   # one run in this process; the last line is the result
//	go run -C benchmark . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print its result line (empty: run the suite)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: operands, batch order and tuner seeds derive from it")
		seconds  = flag.Float64("seconds", 15, "timed window per workload, identical on both sides of any comparison")
		trace    = flag.Int("trace", 0, "1: traced pass (per-layer metrics, out/trace-<workload>.json); with the suite, run it after the untraced pass")
		repeat   = flag.Int("repeat", 3, "suite: runs per workload; medians and quartiles are recorded")
		presetN  = flag.String("preset", "full", "input sizes: full or smoke")
		outDir   = flag.String("out", "out", "directory for results, traces and scratch data (inside the benchmark directory)")
		result   = flag.String("result", "", "with -workload: also write the full result JSON to this file")
		compare  = flag.Bool("compare", false, "compare two results files given as arguments; exit 1 on a regression or an unresolved metric")
	)
	flag.Parse()
	if err := validateSchema(); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two results files, got %d", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	p, ok := presets[*presetN]
	if !ok {
		fatal(fmt.Errorf("unknown preset %q", *presetN))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *workload == "" {
		if err := runSuite(suiteOptions{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Repeat: *repeat, Preset: *presetN, OutDir: *outDir}); err != nil {
			fatal(err)
		}
		return
	}
	if !nameRE.MatchString(*workload) {
		fatal(fmt.Errorf("workload name %q does not match %s", *workload, nameRE))
	}
	res, err := runWorkload(options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Preset: p, OutDir: *outDir})
	if err != nil {
		fatal(err)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(os.Stderr, "oracle:", n)
	}
	if *result != "" {
		b, err := json.Marshal(res)
		if err == nil {
			err = os.WriteFile(*result, b, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	fmt.Println(resultLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// resultLine renders the driver's contract: one JSON object with exactly
// correct, attempted, failed and metrics — every end-to-end metric that
// BENCHMARK.json lists for an untraced run, every per-layer metric for a
// traced one.
func resultLine(res *Result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if res.Trace {
		for _, m := range perLayer {
			metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if m.Contract {
				metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	return string(b)
}
