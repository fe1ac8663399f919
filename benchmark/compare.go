package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setupSlackS is the absolute slack of setup_s: a set-up that is 25 % worse,
// or spread 25 % wide, but by less than half a second is noise on a
// millisecond-scale set-up.
const setupSlackS = 0.5

func loadResults(path string) (*Results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := new(Results)
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one row per (workload, metric) of two results files —
// both medians, their ratio with A as the base, and a verdict — applying
// each end-to-end metric's own bound and direction per workload:
//
//	ok          B is no worse than A by more than the bound
//	regressed   B is worse than A by more than the bound (exact metrics: differs at all)
//	unresolved  either side's run-to-run spread (IQR / median over its -repeat
//	            runs) is wider than the bound, so "unchanged" cannot be claimed
//	info        a per-layer metric: no bound, shown for attribution
//
// It reports whether every row is ok.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Env.Seconds != b.Env.Seconds || a.Env.Preset != b.Env.Preset {
		return false, fmt.Errorf("window or preset differ (A %gs %s, B %gs %s): not comparable",
			a.Env.Seconds, a.Env.Preset, b.Env.Seconds, b.Env.Preset)
	}
	fmt.Fprintf(w, "A = %s (commit %s, seed %d)\nB = %s (commit %s, seed %d)\nratio = B / A\n\n",
		pathA, a.Env.GitCommit, a.Env.Seed, pathB, b.Env.GitCommit, b.Env.Seed)
	fmt.Fprintf(w, "%-20s %-32s %14s %14s %9s  %s\n", "workload", "metric", "A median", "B median", "ratio", "verdict")
	allOK := true
	for _, wl := range workloadSpecs {
		for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
			ca, okA := a.Summary[wl.Name][m.Name]
			cb, okB := b.Summary[wl.Name][m.Name]
			if !okA || !okB {
				continue
			}
			verdict := verdictOf(m, ca, cb, a.Env.Seed == b.Env.Seed)
			if verdict != "ok" && verdict != "info" {
				allOK = false
			}
			ratio := "-"
			if ca.Median != 0 {
				ratio = fmt.Sprintf("%.4f", cb.Median/ca.Median)
			}
			fmt.Fprintf(w, "%-20s %-32s %14.6g %14.6g %9s  %s\n", wl.Name, m.Name, ca.Median, cb.Median, ratio, verdict)
		}
	}
	return allOK, nil
}

func verdictOf(m Metric, a, b Summary, sameSeed bool) string {
	if m.Exact {
		// Simulated statistics and counts repeat bit for bit for a seed.
		switch {
		case !sameSeed:
			return "info"
		case a.Median != b.Median || a.spread() != 0 || b.spread() != 0:
			return "regressed"
		}
		return "ok"
	}
	if m.Layer != "" {
		return "info"
	}
	slack := 0.0
	if m.Name == "setup_s" {
		slack = setupSlackS
	}
	wide := func(s Summary) bool { return s.spread() > m.Bound && math.Abs(s.Q3-s.Q1) > slack }
	if wide(a) || wide(b) {
		return "unresolved"
	}
	worse := b.Median - a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	if worse > m.Bound*a.Median && worse > slack {
		return "regressed"
	}
	return "ok"
}
