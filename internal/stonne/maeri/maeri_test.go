package maeri

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/oracle"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// cm builds a keyed ConvMapping in Table IV order.
func cm(tr, ts, tc, tk, tg, tn, tx, ty int) mapping.ConvMapping {
	return mapping.ConvMapping{TR: tr, TS: ts, TC: tc, TK: tk, TG: tg, TN: tn, TX: tx, TY: ty}
}

// fm builds a keyed FCMapping in Table VI order (T_S, T_K, T_N).
func fm(ts, tk, tn int) mapping.FCMapping {
	return mapping.FCMapping{TS: ts, TK: tk, TN: tn}
}

func testConfig(ms int) config.HWConfig {
	c := config.Default(config.MAERIDenseWorkload)
	c.MSSize = ms
	return c
}

func mustEngine(t *testing.T, cfg config.HWConfig) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runConv simulates a conv on MAERI and compares with the CPU reference.
func runConv(t *testing.T, e *Engine, d tensor.ConvDims, m mapping.ConvMapping, seed int64) int64 {
	t.Helper()
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	inNCHW := tensor.RandomUniform(seed, 1, d.N, d.C, d.H, d.W)
	kerKCRS := tensor.RandomUniform(seed+1, 1, d.K, d.C/d.G, d.R, d.S)
	out, st, err := e.Conv2D(tensor.NCHWToNHWC(inNCHW), kerKCRS.Transpose(2, 3, 1, 0), d, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topi.Conv2DNCHW(inNCHW, kerKCRS, d)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.NPQKToNKPQ(out)
	if !tensor.AllClose(want, got, 1e-3) {
		t.Fatalf("MAERI conv output wrong (mapping %s): max diff %v", m, tensor.MaxAbsDiff(want, got))
	}
	if st.MACs != d.MACs() {
		t.Fatalf("MACs = %d, want %d", st.MACs, d.MACs())
	}
	if st.Cycles <= 0 {
		t.Fatal("cycles must be positive")
	}
	return st.Cycles
}

func TestConvCorrectBasicMapping(t *testing.T) {
	e := mustEngine(t, testConfig(128))
	d := tensor.ConvDims{N: 1, C: 2, H: 10, W: 10, K: 4, R: 3, S: 3}
	runConv(t, e, d, mapping.Basic(), 1)
}

func TestConvCorrectAcrossMappings(t *testing.T) {
	e := mustEngine(t, testConfig(128))
	d := tensor.ConvDims{N: 1, C: 4, H: 9, W: 9, K: 6, R: 3, S: 3, PadH: 1, PadW: 1}
	maps := []mapping.ConvMapping{
		cm(1, 1, 1, 1, 1, 1, 1, 1),
		cm(3, 3, 1, 2, 1, 1, 2, 2),
		cm(1, 1, 4, 6, 1, 1, 2, 1),
		cm(3, 3, 4, 3, 1, 1, 1, 1),
		cm(2, 2, 2, 2, 1, 1, 2, 2),
		cm(3, 1, 2, 1, 1, 1, 3, 3), // uneven tiles exercise edge handling
	}
	for i, m := range maps {
		runConv(t, e, d, m, int64(10+i))
	}
}

func TestConvCorrectGroupsAndStride(t *testing.T) {
	e := mustEngine(t, testConfig(128))
	d := tensor.ConvDims{N: 1, C: 4, H: 11, W: 11, K: 6, R: 3, S: 3, G: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	for i, m := range []mapping.ConvMapping{
		cm(1, 1, 1, 1, 1, 1, 1, 1),
		cm(3, 3, 2, 3, 1, 1, 1, 2),
		cm(1, 3, 2, 1, 2, 1, 2, 1), // T_G = 2
	} {
		runConv(t, e, d, m, int64(30+i))
	}
}

func TestConvCorrectPropertyRandomMappings(t *testing.T) {
	e := mustEngine(t, testConfig(256))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tensor.ConvDims{
			N: 1, C: 1 + rng.Intn(4), H: 5 + rng.Intn(5), W: 5 + rng.Intn(5),
			K: 1 + rng.Intn(5), R: 1 + rng.Intn(3), S: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2), PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if err := d.Resolve(); err != nil {
			return true
		}
		m := mapping.ConvMapping{
			TR: 1 + rng.Intn(d.R), TS: 1 + rng.Intn(d.S), TC: 1 + rng.Intn(d.C),
			TK: 1 + rng.Intn(d.K), TG: 1, TN: 1,
			TX: 1 + rng.Intn(d.P()), TY: 1 + rng.Intn(d.Q()),
		}
		if m.Multipliers() > 256 {
			return true
		}
		inNCHW := tensor.RandomUniform(seed, 1, d.N, d.C, d.H, d.W)
		ker := tensor.RandomUniform(seed+1, 1, d.K, d.C, d.R, d.S)
		out, st, err := e.Conv2D(tensor.NCHWToNHWC(inNCHW), ker.Transpose(2, 3, 1, 0), d, m)
		if err != nil {
			return false
		}
		want, err := topi.Conv2DNCHW(inNCHW, ker, d)
		if err != nil {
			return false
		}
		if !tensor.AllClose(want, tensor.NPQKToNKPQ(out), 1e-3) {
			return false
		}
		// Psum closed form must match the simulated count.
		psums, err := CountConvPsums(d, m)
		if err != nil {
			return false
		}
		return psums == st.SpatialPsums
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConvMoreMultipliersFewerCycles(t *testing.T) {
	// With a good mapping, the multiplier count is inversely correlated
	// with cycles (the optimal-mapping curve of Figure 10).
	d := tensor.ConvDims{N: 1, C: 2, H: 10, W: 10, K: 8, R: 3, S: 3}
	cycles8 := runConv(t, mustEngine(t, testConfig(8)), d, cm(1, 1, 2, 2, 1, 1, 2, 1), 5)
	cycles128 := runConv(t, mustEngine(t, testConfig(128)), d, cm(3, 3, 2, 4, 1, 1, 1, 1), 5)
	if cycles128*2 >= cycles8 {
		t.Fatalf("128 multipliers (%d cycles) should be much faster than 8 (%d cycles)", cycles128, cycles8)
	}
}

func TestConvBasicMappingMuchSlower(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 2, H: 10, W: 10, K: 8, R: 3, S: 3}
	e := mustEngine(t, testConfig(128))
	basic := runConv(t, e, d, mapping.Basic(), 7)
	tuned := runConv(t, e, d, cm(3, 3, 2, 2, 1, 1, 2, 1), 7)
	if basic < tuned*8 {
		t.Fatalf("basic mapping (%d cycles) should be ≥8× slower than a dense mapping (%d cycles)", basic, tuned)
	}
}

func TestConvNoAccumBufferCostsBandwidth(t *testing.T) {
	// Without the accumulation buffer, partial sums recirculate through the
	// distribution network; small-VN mappings must get slower.
	d := tensor.ConvDims{N: 1, C: 8, H: 8, W: 8, K: 4, R: 3, S: 3}
	m := cm(1, 1, 1, 4, 1, 1, 4, 4) // VN=1: every step re-accumulates
	withAB := testConfig(64)
	withoutAB := testConfig(64)
	withoutAB.AccumBuffer = false
	withoutAB.DNBandwidth = 8
	withAB.DNBandwidth = 8
	a := runConv(t, mustEngine(t, withAB), d, m, 9)
	b := runConv(t, mustEngine(t, withoutAB), d, m, 9)
	if b <= a {
		t.Fatalf("no-accum-buffer run (%d cycles) must be slower than with buffer (%d cycles)", b, a)
	}
}

func TestConvMappingValidationEnforced(t *testing.T) {
	e := mustEngine(t, testConfig(8))
	d := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(1, 6, 6, 2)
	ker := tensor.New(3, 3, 2, 4)
	// 3×3×2 = 18 multipliers > 8 available.
	if _, _, err := e.Conv2D(in, ker, d, cm(3, 3, 2, 1, 1, 1, 1, 1)); err == nil {
		t.Fatal("mapping exceeding the multiplier budget must be rejected")
	}
	// Tile exceeding its dimension.
	if _, _, err := e.Conv2D(in, ker, d, cm(4, 1, 1, 1, 1, 1, 1, 1)); err == nil {
		t.Fatal("T_R > R must be rejected")
	}
}

func TestConvShapeValidation(t *testing.T) {
	e := mustEngine(t, testConfig(128))
	d := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3}
	if _, _, err := e.Conv2D(tensor.New(1, 2, 6, 6), tensor.New(3, 3, 2, 4), d, mapping.Basic()); err == nil {
		t.Fatal("NCHW input passed as NHWC must be rejected")
	}
	if _, _, err := e.Conv2D(tensor.New(1, 6, 6, 2), tensor.New(4, 2, 3, 3), d, mapping.Basic()); err == nil {
		t.Fatal("KCRS kernel passed as RSCK must be rejected")
	}
}

func TestDenseCorrect(t *testing.T) {
	e := mustEngine(t, testConfig(128))
	in := tensor.RandomUniform(1, 1, 1, 50)
	w := tensor.RandomUniform(2, 1, 30, 50)
	want, err := topi.Dense(in, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []mapping.FCMapping{
		fm(1, 1, 1),
		fm(20, 1, 1),
		fm(12, 8, 1),
		fm(7, 9, 1), // uneven tiles
		fm(30, 4, 1),
	} {
		got, st, err := e.Dense(in, w, m)
		if err != nil {
			t.Fatalf("mapping %s: %v", m, err)
		}
		if !tensor.AllClose(want, got, 1e-3) {
			t.Fatalf("mapping %s: wrong output, max diff %v", m, tensor.MaxAbsDiff(want, got))
		}
		if st.MACs != 50*30 {
			t.Fatalf("MACs = %d", st.MACs)
		}
		if psums := CountFCPsums(1, 50, 30, m); psums != st.SpatialPsums {
			t.Fatalf("mapping %s: closed-form psums %d != simulated %d", m, psums, st.SpatialPsums)
		}
	}
}

func TestDenseBasicVsTunedSpeedup(t *testing.T) {
	// The Figure 11b effect: parallel output neurons beat the basic mapping.
	e := mustEngine(t, testConfig(128))
	in := tensor.RandomUniform(1, 1, 1, 256)
	w := tensor.RandomUniform(2, 1, 128, 256)
	_, basic, err := e.Dense(in, w, mapping.BasicFC())
	if err != nil {
		t.Fatal(err)
	}
	_, tuned, err := e.Dense(in, w, mapping.FCMapping{TS: 20, TN: 1, TK: 1})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(basic.Cycles) / float64(tuned.Cycles)
	if speedup < 5 || speedup > 40 {
		t.Fatalf("tuned-FC speedup = %.1f×, want order-10× (paper reports ~11×)", speedup)
	}
}

func TestDenseBalancedBeatsPsumOptimal(t *testing.T) {
	// The Figure 12b / Table VI effect: an mRNA-style balanced mapping
	// (spatial reduction + parallel neurons) needs fewer cycles than the
	// psum-minimising T_K=1 mapping.
	e := mustEngine(t, testConfig(128))
	in := tensor.RandomUniform(1, 1, 1, 512)
	w := tensor.RandomUniform(2, 1, 256, 512)
	_, autotvm, err := e.Dense(in, w, mapping.FCMapping{TS: 20, TN: 1, TK: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, mrna, err := e.Dense(in, w, mapping.FCMapping{TS: 14, TN: 1, TK: 8})
	if err != nil {
		t.Fatal(err)
	}
	if mrna.Cycles >= autotvm.Cycles {
		t.Fatalf("balanced mapping (%d cycles) must beat psum-optimal (%d cycles)", mrna.Cycles, autotvm.Cycles)
	}
	// But the psum-optimal mapping must indeed have fewer psums.
	if autotvm.SpatialPsums >= mrna.SpatialPsums {
		t.Fatalf("T_K=1 mapping must minimise psums: %d vs %d", autotvm.SpatialPsums, mrna.SpatialPsums)
	}
}

func TestDenseValidation(t *testing.T) {
	e := mustEngine(t, testConfig(8))
	in := tensor.New(1, 10)
	w := tensor.New(5, 10)
	if _, _, err := e.Dense(in, w, mapping.FCMapping{TS: 5, TN: 1, TK: 4}); err == nil {
		t.Fatal("mapping exceeding multipliers must be rejected")
	}
	if _, _, err := e.Dense(in, tensor.New(5, 11), mapping.BasicFC()); err == nil {
		t.Fatal("reduction mismatch must be rejected")
	}
	if _, _, err := e.Dense(tensor.New(10), w, mapping.BasicFC()); err == nil {
		t.Fatal("rank-1 input must be rejected")
	}
}

func TestDryRunMatchesFullRunCounters(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 3, H: 8, W: 8, K: 4, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := cm(3, 3, 1, 2, 1, 1, 2, 1)
	in := tensor.RandomUniform(1, 1, 1, 8, 8, 3)
	ker := tensor.RandomUniform(2, 1, 3, 3, 3, 4)
	full := mustEngine(t, testConfig(128))
	_, a, err := full.Conv2D(in, ker, d, m)
	if err != nil {
		t.Fatal(err)
	}
	dry := mustEngine(t, testConfig(128))
	dry.DryRun = true
	_, b, err := dry.Conv2D(in, ker, d, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.SpatialPsums != b.SpatialPsums || a.MACs != b.MACs || a.Steps != b.Steps {
		t.Fatalf("dry-run counters differ: %+v vs %+v", a, b)
	}
}

// TestDenseStatsNeedsShapesOnly checks the shape-only entry: DenseStats
// reports exactly the counters a full-accuracy Dense over real operands
// does, on the closed form and on the oracle's step loop, and Dense itself
// still refuses to run without tensors.
func TestDenseStatsNeedsShapesOnly(t *testing.T) {
	in := tensor.RandomUniform(1, 1, 3, 37)
	w := tensor.RandomUniform(2, 1, 11, 37)
	m := mapping.FCMapping{TS: 4, TK: 5, TN: 1}
	cfg := testConfig(128)
	e := mustEngine(t, cfg)
	_, want, err := e.Dense(in, w, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.DenseStats(3, 37, 11, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("shape-only stats %+v, full run %+v", got, want)
	}
	_, refFull, err := oracle.Dense(cfg, in, w, m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.DenseStats(cfg, 3, 37, 11, m)
	if err != nil {
		t.Fatal(err)
	}
	if ref != want || refFull != want {
		t.Errorf("step loop: shape-only stats %+v, full run %+v, engine %+v", ref, refFull, want)
	}
	if _, err := e.DenseStats(3, 37, 11, mapping.FCMapping{TS: 64, TK: 64, TN: 1}); err == nil {
		t.Error("a mapping larger than the multiplier array must be rejected")
	}
	if _, err := oracle.DenseStats(cfg, 3, 37, 11, mapping.FCMapping{TS: 64, TK: 64, TN: 1}); err == nil {
		t.Error("the step loop must reject a mapping larger than the multiplier array")
	}
	if _, _, err := e.Dense(nil, nil, m); err == nil {
		t.Error("Dense without tensors must be rejected")
	}
	if _, _, err := oracle.Dense(cfg, nil, nil, m); err == nil {
		t.Error("the step loop's Dense without tensors must be rejected")
	}
}

func TestNewEngineRejectsBadConfig(t *testing.T) {
	cfg := testConfig(128)
	cfg.Controller = config.SIGMASparseGEMM
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("non-MAERI controller must be rejected")
	}
	cfg = testConfig(100) // not a power of two
	if _, err := NewEngine(cfg); err == nil {
		t.Fatal("invalid ms_size must be rejected")
	}
}

func TestUniqueSpan(t *testing.T) {
	cases := []struct{ out, filter, stride, want int }{
		{4, 3, 1, 6},  // overlapping windows share taps
		{4, 3, 3, 12}, // exactly abutting
		{4, 3, 4, 12}, // gaps: no sharing
		{1, 5, 1, 5},
		{5, 1, 1, 5},
		{3, 2, 2, 6},
	}
	for _, c := range cases {
		if got := uniqueSpan(c.out, c.filter, c.stride); got != c.want {
			t.Fatalf("uniqueSpan(%d,%d,%d) = %d, want %d", c.out, c.filter, c.stride, got, c.want)
		}
	}
}

func TestCountConvPsumsBasicIsZero(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 3, H: 10, W: 10, K: 8, R: 3, S: 3}
	psums, err := CountConvPsums(d, mapping.Basic())
	if err != nil {
		t.Fatal(err)
	}
	if psums != 0 {
		t.Fatalf("basic mapping has no spatial reduction: psums = %d, want 0", psums)
	}
	// Full reduction tile: psums = outputs × (C·R·S − 1).
	full := cm(3, 3, 3, 1, 1, 1, 1, 1)
	psums, err = CountConvPsums(d, full)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	want := int64(8*d.P()*d.Q()) * int64(3*3*3-1)
	if psums != want {
		t.Fatalf("full-VN psums = %d, want %d", psums, want)
	}
}

func TestCountFCPsumsEdges(t *testing.T) {
	if p := CountFCPsums(1, 100, 50, mapping.FCMapping{TS: 10, TN: 1, TK: 1}); p != 0 {
		t.Fatalf("T_K=1 psums = %d, want 0", p)
	}
	if p := CountFCPsums(1, 100, 50, mapping.FCMapping{TS: 1, TN: 1, TK: 100}); p != int64(50*99) {
		t.Fatalf("full-K psums = %d, want %d", p, 50*99)
	}
}
