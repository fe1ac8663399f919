package core

import (
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// cpuRun executes a graph entirely on the CPU inventory for comparison.
func cpuRun(t *testing.T, g *graph.Graph, feeds map[string]*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	ex := &graph.Executor{Graph: g}
	outs, err := ex.Run(feeds)
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func TestSessionRunsTinyCNNOnAllArchitectures(t *testing.T) {
	in := tensor.RandomUniform(9, 1, 1, 2, 10, 10)
	feeds := map[string]*tensor.Tensor{"data": in}
	want := cpuRun(t, models.TinyCNN(42), feeds)
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		s, err := NewSession(config.Default(ct))
		if err != nil {
			t.Fatal(err)
		}
		s.Verify = true
		outs, err := s.Run(models.TinyCNN(42), feeds)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, outs[0], 1e-3) {
			t.Fatalf("%s: end-to-end output differs from CPU: max diff %v", ct, tensor.MaxAbsDiff(want, outs[0]))
		}
		recs := s.Records()
		if len(recs) != 2 { // conv1 + fc1
			t.Fatalf("%s: %d layer records, want 2", ct, len(recs))
		}
		total := s.TotalStats()
		if total.Cycles <= 0 || total.MACs <= 0 {
			t.Fatalf("%s: empty totals %+v", ct, total)
		}
	}
}

// TestSessionReferenceBitIdentical proves the end-to-end fused fast path
// against the step-loop reference at the session level: same model, same
// feeds, Reference toggled — outputs and every per-layer record must be
// bit-identical on all three architectures.
func TestSessionReferenceBitIdentical(t *testing.T) {
	in := tensor.RandomUniform(9, 1, 1, 2, 10, 10)
	feeds := map[string]*tensor.Tensor{"data": in}
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		fused, err := NewSession(config.Default(ct))
		if err != nil {
			t.Fatal(err)
		}
		fusedOuts, err := fused.Run(models.TinyCNN(42), feeds)
		if err != nil {
			t.Fatalf("%s fused: %v", ct, err)
		}
		ref, err := NewSession(config.Default(ct))
		if err != nil {
			t.Fatal(err)
		}
		ref.Reference = true
		refOuts, err := ref.Run(models.TinyCNN(42), feeds)
		if err != nil {
			t.Fatalf("%s reference: %v", ct, err)
		}
		if i := tensor.FirstBitDiff(refOuts[0], fusedOuts[0]); i >= 0 {
			t.Errorf("%s: fused output diverges from step loop at element %d", ct, i)
		}
		fr, rr := fused.Records(), ref.Records()
		if len(fr) != len(rr) {
			t.Fatalf("%s: %d fused records vs %d reference records", ct, len(fr), len(rr))
		}
		for i := range fr {
			if fr[i].Stats != rr[i].Stats {
				t.Errorf("%s: layer %q stats diverge:\n fused %+v\n ref   %+v", ct, fr[i].Name, fr[i].Stats, rr[i].Stats)
			}
		}
	}
}

func TestSessionRunsLeNetOnMAERI(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	s.Verify = true
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(1, 1, 1, 1, 28, 28)}
	g := models.LeNet5(7)
	want := cpuRun(t, models.LeNet5(7), feeds)
	outs, err := s.Run(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, outs[0], 1e-3) {
		t.Fatalf("LeNet output differs: max diff %v", tensor.MaxAbsDiff(want, outs[0]))
	}
	if len(s.Records()) != 5 { // 2 convs + 3 dense
		t.Fatalf("%d records, want 5", len(s.Records()))
	}
}

func TestPerLayerMappingOverrides(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	tuned := mapping.ConvMapping{TR: 3, TS: 3, TC: 2, TK: 2, TG: 1, TN: 1, TX: 2, TY: 1}
	s.ConvMappings["conv1"] = tuned
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	withOverride := s.Records()[0].Stats.Cycles

	s2, _ := NewSession(config.Default(config.MAERIDenseWorkload))
	if _, err := s2.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	basic := s2.Records()[0].Stats.Cycles
	if withOverride >= basic {
		t.Fatalf("tuned mapping (%d cycles) must beat basic (%d cycles)", withOverride, basic)
	}
	if !strings.Contains(s.Records()[0].Mapping, "T_K=2") {
		t.Fatalf("record should carry the mapping: %q", s.Records()[0].Mapping)
	}
}

func TestDefaultMappingApplied(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	def := mapping.FCMapping{TS: 4, TN: 1, TK: 4}
	s.DefaultFCMapping = &def
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, r := range s.Records() {
		if r.Op == "dense" && strings.Contains(r.Mapping, "4, 4, 1") {
			found = true
		}
	}
	if !found {
		t.Fatalf("default FC mapping not applied: %+v", s.Records())
	}
}

func TestOffloadToggles(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	s.OffloadConv = false
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Records() {
		if r.Op == "conv2d" {
			t.Fatal("conv must not be offloaded when disabled")
		}
	}
	if len(s.Records()) != 1 {
		t.Fatalf("%d records, want 1 (dense only)", len(s.Records()))
	}
}

func TestSIGMASparsityPruningAffectsCycles(t *testing.T) {
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	run := func(sparsity int) int64 {
		cfg := config.Default(config.SIGMASparseGEMM)
		cfg.SparsityRatio = sparsity
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
			t.Fatal(err)
		}
		return s.TotalStats().Cycles
	}
	dense := run(0)
	sparse := run(50)
	if sparse >= dense {
		t.Fatalf("50%% sparsity (%d cycles) must be faster than dense (%d cycles)", sparse, dense)
	}
}

// TestSIGMAPrunesEachWeightOnce checks that a sparse SIGMA session prunes a
// weight tensor the first time a Run meets it and never again: later runs
// perform no prune work and reproduce the first run's records and output.
func TestSIGMAPrunesEachWeightOnce(t *testing.T) {
	cfg := config.Default(config.SIGMASparseGEMM)
	cfg.SparsityRatio = 50
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := models.TinyCNN(1)
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	first, err := s.Run(g, feeds)
	if err != nil {
		t.Fatal(err)
	}
	records := append([]api.LayerRecord(nil), s.Records()...)
	if s.prunes != len(records) {
		t.Fatalf("first run pruned %d weights for %d offloaded layers", s.prunes, len(records))
	}
	for run := 2; run <= 3; run++ {
		outs, err := s.Run(g, feeds)
		if err != nil {
			t.Fatal(err)
		}
		if s.prunes != len(records) {
			t.Fatalf("run %d pruned again: %d prune passes for %d weights", run, s.prunes, len(records))
		}
		if i := tensor.FirstBitDiff(first[0], outs[0]); i >= 0 {
			t.Fatalf("run %d output diverges from the first at element %d", run, i)
		}
		for l, r := range s.Records() {
			if r != records[l] {
				t.Fatalf("run %d record %d = %+v, first run reported %+v", run, l, r, records[l])
			}
		}
	}
}

func TestNewSessionRejectsInvalidConfig(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = 12
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

func TestInvalidMappingSurfacesError(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	s.ConvMappings["conv1"] = mapping.ConvMapping{TR: 9, TS: 9, TC: 9, TK: 9, TG: 1, TN: 1, TX: 1, TY: 1}
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err == nil {
		t.Fatal("invalid mapping must abort the run")
	}
}

func TestReportMentionsLayersAndTotals(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	for _, want := range []string{"conv1", "fc1", "total:", "MAERI"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestRunResetsRecords(t *testing.T) {
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	n := len(s.Records())
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != n {
		t.Fatalf("records accumulated across runs: %d vs %d", len(s.Records()), n)
	}
}

func TestNHWCModelOffload(t *testing.T) {
	// A TensorFlow-layout model must take the conv2d.nhwc path and still
	// match the CPU execution on every architecture.
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(11, 1, 1, 10, 10, 2)}
	want := cpuRun(t, models.TinyCNNNHWC(4), feeds)
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		s, err := NewSession(config.Default(ct))
		if err != nil {
			t.Fatal(err)
		}
		s.Verify = true
		outs, err := s.Run(models.TinyCNNNHWC(4), feeds)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, outs[0], 1e-3) {
			t.Fatalf("%s: NHWC model output differs: max diff %v", ct, tensor.MaxAbsDiff(want, outs[0]))
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	// Sanity check that Verify is not vacuous: an impossible tolerance must
	// still pass (outputs are exact), while the mechanism is exercised.
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	s.Verify = true
	s.VerifyTolerance = 1e-9 // float32 sums differ by rounding only
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(3, 1, 1, 2, 10, 10)}
	if _, err := s.Run(models.TinyCNN(1), feeds); err != nil {
		// Rounding order may legitimately exceed 1e-9; accept either
		// outcome but require the error to identify the layer.
		if !strings.Contains(err.Error(), "verification failed") {
			t.Fatalf("unexpected error kind: %v", err)
		}
	}
}

func TestMiniResNetOffloadWithBNFolding(t *testing.T) {
	// The residual model exercises batch-norm folding (the BN sits between
	// the offloaded conv and the skip add) plus the element-wise Add on the
	// CPU path, with offloaded convs on MAERI.
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(13, 1, 1, 8, 16, 16)}
	want := cpuRun(t, models.MiniResNet(2), feeds)
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	s.Verify = true
	outs, err := s.Run(models.MiniResNet(2), feeds)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(want, outs[0], 1e-3) {
		t.Fatalf("residual model differs: max diff %v", tensor.MaxAbsDiff(want, outs[0]))
	}
	// 2 convs + 1 dense offloaded.
	if len(s.Records()) != 3 {
		t.Fatalf("records = %d, want 3", len(s.Records()))
	}
}

// TestSessionPackCacheHoldsWhatIsReRead pins a MAERI model session's pack
// cache traffic: the first run publishes one RSCK transpose per conv layer
// and nothing else (the engine used to flood it with one entry per
// reduction tile, 11 989 a run, evicting the transposes before they could
// be hit), and the second run finds every one of them — zero puts, zero
// misses.
func TestSessionPackCacheHoldsWhatIsReRead(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs full AlexNet")
	}
	s, err := NewSession(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	g := models.AlexNet(3)
	run := func(seed int64) tensor.PackStats {
		t.Helper()
		feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(seed, 1, 1, 3, 227, 227)}
		if _, err := s.Run(g, feeds); err != nil {
			t.Fatal(err)
		}
		return s.pack.Stats()
	}
	first := run(1)
	if first.Puts != 5 || first.Evictions != 0 {
		t.Fatalf("first run: %+v, want 5 puts (one RSCK transpose per conv layer) and no evictions", first)
	}
	second := run(2)
	if second.Puts != first.Puts || second.Misses != first.Misses || second.Hits != first.Hits+5 {
		t.Fatalf("second run did not hit every cached weight transpose:\n first  %+v\n second %+v", first, second)
	}
}
