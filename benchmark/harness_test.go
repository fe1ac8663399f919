package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHarnessSmoke runs every workload untraced and traced on the smoke
// preset with a half-second window and checks the harness's own contract:
// every metric of the schema present and finite, no failed operation, exact
// metrics identical across invocations with one seed, self shares summing
// to 1. It says nothing about speed, so the workloads run side by side.
// Under -short it skips the two slowest invocations (the traced AlexNet
// pass and the second traced pass of the others).
func TestHarnessSmoke(t *testing.T) {
	out := filepath.Join("out", "harness-test")
	if err := os.MkdirAll(out, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(out) })
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			o := options{Workload: w.Name, Seed: 1, Seconds: 0.5, Preset: presets["smoke"], OutDir: out}
			plain, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, plain, endToEnd)
			if plain.Metrics["failed_ratio"] != 0 {
				t.Errorf("failed_ratio = %v, want 0", plain.Metrics["failed_ratio"])
			}
			if w.Name == "alexnet_e2e" && testing.Short() {
				t.Skip("the traced AlexNet pass replays two more full-model runs per controller")
			}
			o.Trace = true
			traced, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, traced, perLayer)
			var shares float64
			for _, l := range layers {
				shares += traced.Metrics[l+".self_share"]
			}
			if math.Abs(shares-1) > 0.05 {
				t.Errorf("self shares sum to %v, want 1 +- 0.05", shares)
			}
			if a, b := plain.Metrics["sim_cycles_total"], traced.Metrics["sim_cycles_total"]; a != b || a <= 0 {
				t.Errorf("sim_cycles_total differs between two invocations with one seed: %v and %v", a, b)
			}
			if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("the traced pass left no span file: %v", err)
			}
			if w.Name == "alexnet_e2e" || testing.Short() {
				return // a second traced run costs four more model runs
			}
			again, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if m.Exact && traced.Metrics[m.Name] != again.Metrics[m.Name] {
					t.Errorf("exact metric %s differs between two invocations with one seed: %v and %v",
						m.Name, traced.Metrics[m.Name], again.Metrics[m.Name])
				}
			}
		})
	}
}

func checkRun(t *testing.T, r *Result, want []Metric) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d notes=%v", r.Correct, r.Attempted, r.Failed, r.Notes)
	}
	for _, m := range want {
		v, ok := r.Metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s missing or not finite (%v)", m.Name, v)
		}
	}
	var line struct {
		Correct   bool `json:"correct"`
		Attempted int64
		Failed    int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(resultLine(r)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	for name, v := range line.Metrics {
		if m, ok := metricByName(name); !ok || m.Unit != v.Unit {
			t.Errorf("result line metric %s has unit %q, schema says %+v", name, v.Unit, m)
		}
	}
}

// TestBenchmarkJSONMirrorsSchema keeps ../BENCHMARK.json and schema.go
// saying the same thing.
func TestBenchmarkJSONMirrorsSchema(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads, schema has %d", len(doc.Workloads), len(workloadSpecs))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d chars), schema says %q", i, w.Name, len(w.Why), workloadSpecs[i].Name)
		}
	}
	var contract []Metric
	for _, m := range endToEnd {
		if m.Contract {
			contract = append(contract, m)
		}
	}
	if len(doc.EndToEnd) != len(contract) {
		t.Fatalf("%d end-to-end metrics, schema has %d", len(doc.EndToEnd), len(contract))
	}
	for i, m := range doc.EndToEnd {
		if w := contract[i]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || m.Bound != w.Bound {
			t.Errorf("end-to-end metric %+v, schema says %+v", m, w)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, schema has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if w := perLayer[i]; m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
			t.Errorf("per-layer metric %+v, schema says %+v", m, w)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	cell := func(vs ...float64) Summary { return summarise(vs) }
	ops, _ := metricByName("ops_per_s")
	cycles, _ := metricByName("sim_cycles_total")
	setup, _ := metricByName("setup_s")
	for _, c := range []struct {
		name string
		m    Metric
		a, b Summary
		want string
	}{
		{"within bound", ops, cell(100, 101, 102), cell(95, 96, 97), "ok"},
		{"worse than bound", ops, cell(100, 101, 102), cell(70, 71, 72), "regressed"},
		{"better", ops, cell(100, 101, 102), cell(150, 151, 152), "ok"},
		{"noisy", ops, cell(100, 101, 102), cell(70, 100, 130), "unresolved"},
		{"exact equal", cycles, cell(5, 5, 5), cell(5, 5, 5), "ok"},
		{"exact moved", cycles, cell(5, 5, 5), cell(6, 6, 6), "regressed"},
		{"set-up inside the absolute slack", setup, cell(0.10, 0.10, 0.10), cell(0.2, 0.2, 0.2), "ok"},
		{"set-up beyond it", setup, cell(3, 3, 3), cell(4, 4, 4), "regressed"},
	} {
		if got := verdictOf(c.m, c.a, c.b, true); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if err := validateSchema(); err != nil {
		t.Error(err)
	}
}
