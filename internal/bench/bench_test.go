package bench

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
)

func TestFig9MiniShape(t *testing.T) {
	rows, err := Fig9(nil, Mini, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("fig9 rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.CyclesDense <= 0 || r.CyclesSparse50 <= 0 {
			t.Fatalf("%s: non-positive cycles", r.Layer)
		}
		// The Figure 9 shape: 50% sparsity must reduce cycles noticeably.
		if red := r.Reduction(); red < 0.2 || red > 0.8 {
			t.Fatalf("%s: 50%% sparsity reduction = %.2f, want roughly half (paper: 44-54%%)", r.Layer, red)
		}
	}
	var sb strings.Builder
	RenderFig9(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 9a") || !strings.Contains(sb.String(), "average reduction") {
		t.Fatalf("render output incomplete:\n%s", sb.String())
	}
}

func TestFig10Shape(t *testing.T) {
	rows, err := Fig10(nil, []int{8, 32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig10 rows = %d", len(rows))
	}
	// Optimal cycles must fall monotonically with multipliers.
	for i := 1; i < len(rows); i++ {
		if rows[i].OptimalCycles >= rows[i-1].OptimalCycles {
			t.Fatalf("optimal cycles must fall with multipliers: %v then %v", rows[i-1], rows[i])
		}
	}
	// The suboptimal/optimal gap must grow with the array size.
	firstGap := float64(rows[0].Suboptimal) / float64(rows[0].OptimalCycles)
	lastGap := float64(rows[2].Suboptimal) / float64(rows[2].OptimalCycles)
	if lastGap <= firstGap {
		t.Fatalf("mapping gap must grow with multipliers: %.1f then %.1f", firstGap, lastGap)
	}
	if lastGap < 10 {
		t.Fatalf("gap at 128 multipliers = %.1f×, expected large (paper: ~76×)", lastGap)
	}
	var sb strings.Builder
	RenderFig10(&sb, rows)
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Fatal("render output incomplete")
	}
}

func TestMappingStudyMiniShape(t *testing.T) {
	opts := DefaultTuneOptions()
	opts.Trials = 200
	opts.EarlyStopping = 60
	rows, err := MappingStudy(nil, Mini, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		// Figure 11 shape: tuned mappings beat the basic mapping broadly.
		if r.Speedup() < 2 {
			t.Fatalf("%s: AutoTVM speedup %.1f× too small", r.Layer, r.Speedup())
		}
		// Figure 12 shape: mRNA is at least as good as AutoTVM.
		if r.MRNACycles > r.AutoTVMCycles {
			t.Fatalf("%s: mRNA (%d) must not lose to AutoTVM (%d)", r.Layer, r.MRNACycles, r.AutoTVMCycles)
		}
		if !r.IsConv {
			// Table VI shape: AutoTVM minimises T_K, mRNA does not.
			if r.AutoTVMFC.TK != 1 {
				t.Fatalf("%s: psum-tuned T_K = %d, want 1", r.Layer, r.AutoTVMFC.TK)
			}
			if r.MRNAFC.TK <= 1 {
				t.Fatalf("%s: mRNA T_K = %d, want > 1", r.Layer, r.MRNAFC.TK)
			}
		}
	}
	var sb strings.Builder
	RenderFig11(&sb, rows)
	RenderTableVI(&sb, rows)
	RenderFig12(&sb, rows)
	out := sb.String()
	for _, want := range []string{"Figure 11a", "Figure 11b", "Table VI", "Figure 12a", "Figure 12b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render output missing %q", want)
		}
	}
}

// TestConvTuningFeasibleOnEverySeed runs the mapping study's psum XGB search
// (600 trials, early stopping at 120) on the paper-scale AlexNet conv layers
// for seeds 1–100: every search must find a feasible mapping. Conv1's space
// is about 1.4 % feasible, so a search may open with well over 120
// infeasible trials; early stopping must not count them.
func TestConvTuningFeasibleOnEverySeed(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	for _, l := range models.AlexNetLayers() {
		if l.Op != graph.OpConv2D {
			continue
		}
		o := DefaultTuneOptions()
		for o.Seed = 1; o.Seed <= 100; o.Seed++ {
			if _, err := tunedConvMapping(l.Conv, cfg.MSSize, o); err != nil {
				t.Errorf("%s seed %d: %v", l.Name, o.Seed, err)
			}
		}
	}
}

func TestTableAndCSVRender(t *testing.T) {
	var sb strings.Builder
	Table(&sb, "t", []string{"a", "b"}, [][]string{{"1", "22"}, {"333", "4"}})
	if !strings.Contains(sb.String(), "333") {
		t.Fatal("table render lost cells")
	}
	sb.Reset()
	CSV(&sb, []string{"a", "b"}, [][]string{{"1", "2"}})
	if sb.String() != "a,b\n1,2\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}
