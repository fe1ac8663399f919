package maeri

import (
	"math"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/oracle"
	"repro/internal/tensor"
)

// The equivalence suite proves the analytical engine and the fused kernels
// bit-identical to the oracle package's step loop across a grid of geometries, mappings and
// hardware configurations — including boundary-heavy tiles (dimensions not
// divisible by their tile), grouped convolutions and strided layers.

func maeriCfg(msSize, dnBW, rnBW int, accum bool, rn config.ReduceNetworkType) config.HWConfig {
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = msSize
	cfg.DNBandwidth = dnBW
	cfg.RNBandwidth = rnBW
	cfg.AccumBuffer = accum
	cfg.ReduceNetwork = rn
	return cfg.Normalize()
}

func TestAnalyticConvMatchesReference(t *testing.T) {
	dims := []tensor.ConvDims{
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 2, C: 6, H: 7, W: 9, K: 4, R: 3, S: 3},
		{N: 1, C: 8, H: 11, W: 11, K: 8, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 1, C: 8, H: 10, W: 10, K: 8, R: 3, S: 3, G: 2, PadH: 1, PadW: 1},
		{N: 3, C: 6, H: 9, W: 9, K: 6, R: 5, S: 5, G: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{N: 1, C: 5, H: 13, W: 13, K: 7, R: 1, S: 1},
	}
	maps := []mapping.ConvMapping{
		{TR: 1, TS: 1, TC: 1, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},
		{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 2, TY: 2},
		{TR: 2, TS: 2, TC: 3, TK: 1, TG: 1, TN: 1, TX: 3, TY: 2}, // boundary-heavy: 2∤3, 3∤8
		{TR: 1, TS: 3, TC: 2, TK: 3, TG: 1, TN: 1, TX: 4, TY: 3}, // boundary on C, K, X, Y
		{TR: 3, TS: 1, TC: 1, TK: 2, TG: 2, TN: 1, TX: 2, TY: 5}, // G tile > 1
	}
	cfgs := []config.HWConfig{
		maeriCfg(256, 4, 4, true, config.ASNetwork),
		maeriCfg(256, 1, 1, false, config.ASNetwork),
		maeriCfg(256, 8, 2, true, config.FENetwork),
		maeriCfg(256, 2, 8, false, config.FENetwork),
	}
	for _, d := range dims {
		for _, m := range maps {
			if err := m.Validate(d, 256); err != nil {
				continue // mapping not legal for this geometry; skip
			}
			for _, cfg := range cfgs {
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.DryRun = true
				_, fast, err := eng.Conv2D(nil, nil, d, m)
				if err != nil {
					t.Fatalf("analytic: %v", err)
				}
				ref, err := oracle.ConvStats(cfg, d, m)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if fast != ref {
					t.Errorf("dims=%+v mapping=[%s] accum=%v dn=%d rn=%d %s:\n analytic %+v\n reference %+v",
						d, m, cfg.AccumBuffer, cfg.DNBandwidth, cfg.RNBandwidth, cfg.ReduceNetwork, fast, ref)
				}
			}
		}
	}
}

func TestAnalyticDenseMatchesReference(t *testing.T) {
	type geo struct{ m, k, n int }
	geos := []geo{
		{1, 256, 64},
		{3, 100, 37}, // boundary on every axis for most tiles
		{2, 17, 5},
	}
	maps := []mapping.FCMapping{
		{TS: 1, TN: 1, TK: 1},
		{TS: 4, TN: 1, TK: 8},
		{TS: 5, TN: 1, TK: 3}, // boundary-heavy
		{TS: 2, TN: 2, TK: 7},
	}
	cfgs := []config.HWConfig{
		maeriCfg(256, 4, 4, true, config.ASNetwork),
		maeriCfg(256, 1, 2, false, config.FENetwork),
		maeriCfg(256, 8, 1, true, config.FENetwork),
	}
	for _, g := range geos {
		in := tensor.New(g.m, g.k)
		w := tensor.New(g.n, g.k)
		for _, m := range maps {
			if err := m.Validate(g.m, g.k, g.n, 256); err != nil {
				continue
			}
			for _, cfg := range cfgs {
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.DryRun = true
				_, fast, err := eng.Dense(in, w, m)
				if err != nil {
					t.Fatalf("analytic: %v", err)
				}
				ref, err := oracle.DenseStats(cfg, g.m, g.k, g.n, m)
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				if fast != ref {
					t.Errorf("geo=%+v mapping=%s cfg=%+v:\n analytic %+v\n reference %+v", g, m, cfg, fast, ref)
				}
			}
		}
	}
}

// TestFusedConvMatchesStepLoop proves the full-accuracy fused fast path —
// analytic counters plus the fused arithmetic kernel — bit-identical (Stats
// AND output bytes) to the step-loop reference across geometries, mappings
// and hardware configurations, including boundary-heavy tiles, groups,
// strides and padding (where the reference skips out-of-window taps and the
// kernel multiplies zero-filled ones), and every edge of the kernel's 4 × 8
// blocking: K/G below, at and between multiples of 8, output rows of less
// than one, exactly one and a fractional number of 4-wide blocks.
func TestFusedConvMatchesStepLoop(t *testing.T) {
	dims := []tensor.ConvDims{
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 2, C: 6, H: 7, W: 9, K: 4, R: 3, S: 3},
		{N: 1, C: 8, H: 11, W: 11, K: 8, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{N: 1, C: 8, H: 10, W: 10, K: 8, R: 3, S: 3, G: 2, PadH: 1, PadW: 1},
		{N: 3, C: 6, H: 9, W: 9, K: 6, R: 5, S: 5, G: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{N: 1, C: 5, H: 13, W: 13, K: 7, R: 1, S: 1},
		// K/G 16, 24, 40 (whole K-blocks) and 12, 20 (a partial last one)
		// against Q 13, 5, 4, 3 (partial, whole and sub-block rows).
		{N: 1, C: 3, H: 5, W: 13, K: 16, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 1, C: 6, H: 4, W: 5, K: 24, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 1, C: 3, H: 4, W: 4, K: 40, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 1, C: 4, H: 5, W: 4, K: 12, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 1, C: 6, H: 6, W: 3, K: 40, R: 3, S: 3, G: 2, PadH: 1, PadW: 1},
		// Q = 1 and Q = 2 under padding: no output column has an interior
		// window, every tap row and column crosses the border somewhere.
		{N: 1, C: 3, H: 3, W: 1, K: 8, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 1, C: 6, H: 4, W: 2, K: 16, R: 3, S: 3, PadH: 1, PadW: 1},
		// Q = 1 without padding: a single window the size of the input.
		{N: 1, C: 3, H: 3, W: 3, K: 8, R: 3, S: 3},
		// conv1-like: large window, stride 4, no padding.
		{N: 1, C: 3, H: 23, W: 23, K: 16, R: 11, S: 11, StrideH: 4, StrideW: 4},
		// conv2-like: 5×5 window, padding 2, two groups, batch of two.
		{N: 2, C: 6, H: 7, W: 7, K: 16, R: 5, S: 5, G: 2, PadH: 2, PadW: 2},
	}
	maps := []mapping.ConvMapping{
		{TR: 1, TS: 1, TC: 1, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},
		{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 2, TY: 2},
		{TR: 2, TS: 2, TC: 3, TK: 1, TG: 1, TN: 1, TX: 3, TY: 2}, // boundary-heavy reduction tiles
		{TR: 1, TS: 3, TC: 2, TK: 3, TG: 1, TN: 1, TX: 4, TY: 3},
		{TR: 3, TS: 1, TC: 1, TK: 2, TG: 2, TN: 1, TX: 2, TY: 5},
		// Multi-tap tiles whose rows straddle the top and bottom padding:
		// part of a tile's taps are zero-filled, part are live.
		{TR: 2, TS: 1, TC: 3, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},
	}
	cfg := maeriCfg(256, 4, 4, true, config.ASNetwork)
	for di, d := range dims {
		dd := d
		if err := dd.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := tensor.RandomUniform(int64(100+di), 1, dd.N, dd.H, dd.W, dd.C)
		ker := tensor.RandomUniform(int64(200+di), 1, dd.R, dd.S, dd.C/dd.G, dd.K)
		// Zero activations of either sign, against weights of either sign
		// (RandomUniform is symmetric): their products are the ±0 the
		// kernel's zero-filled padding taps also contribute, and must be
		// the bitwise no-ops the header of fused.go argues they are.
		tensor.Prune(in, 0.25)
		for i, v := range in.Data() {
			if v == 0 && i%2 == 1 {
				in.Data()[i] = float32(math.Copysign(0, -1))
			}
		}
		for _, m := range maps {
			if err := m.Validate(dd, 256); err != nil {
				continue
			}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fusedOut, fused, err := eng.Conv2D(in, ker, dd, m)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			refOut, ref, err := oracle.Conv2DNHWC(cfg, in, ker, dd, m)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if fused != ref {
				t.Errorf("dims=%+v mapping=[%s]: fused stats diverge:\n fused %+v\n ref   %+v", d, m, fused, ref)
			}
			if i := tensor.FirstBitDiff(refOut, fusedOut); i >= 0 {
				t.Errorf("dims=%+v mapping=[%s]: fused output diverges at element %d: %v vs %v",
					d, m, i, fusedOut.Data()[i], refOut.Data()[i])
			}
		}
	}
}

// TestFusedDenseMatchesStepLoop is the dense-layer analogue: output bytes
// and Stats of the fused path must match the step loop for every K tiling.
func TestFusedDenseMatchesStepLoop(t *testing.T) {
	type geo struct{ m, k, n int }
	geos := []geo{
		{1, 256, 64},
		{3, 100, 37},
		{2, 17, 5}, // output neurons not a multiple of the 4-wide micro-block
		{1, 19, 6},
		{2, 23, 7},
	}
	maps := []mapping.FCMapping{
		{TS: 1, TN: 1, TK: 1},
		{TS: 4, TN: 1, TK: 8},
		{TS: 5, TN: 1, TK: 3},
		{TS: 2, TN: 2, TK: 7},
		// T_K = inN for the last two geometries — the whole chain is one
		// accumulator — and past inN for the shorter ones, which engine and
		// oracle must both reject.
		{TS: 1, TN: 1, TK: 19},
		{TS: 3, TN: 1, TK: 23},
	}
	cfg := maeriCfg(256, 4, 4, true, config.ASNetwork)
	for gi, g := range geos {
		in := tensor.RandomUniform(int64(300+gi), 1, g.m, g.k)
		w := tensor.RandomUniform(int64(400+gi), 1, g.n, g.k)
		for _, m := range maps {
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fusedOut, fused, err := eng.Dense(in, w, m)
			refOut, ref, refErr := oracle.Dense(cfg, in, w, m)
			if m.Validate(g.m, g.k, g.n, 256) != nil {
				if err == nil || refErr == nil {
					t.Errorf("geo=%+v mapping=%s is invalid: fused err %v, reference err %v", g, m, err, refErr)
				}
				continue
			}
			if err != nil || refErr != nil {
				t.Fatalf("geo=%+v mapping=%s: fused err %v, reference err %v", g, m, err, refErr)
			}
			if fused != ref {
				t.Errorf("geo=%+v mapping=%s: fused stats diverge:\n fused %+v\n ref   %+v", g, m, fused, ref)
			}
			if i := tensor.FirstBitDiff(refOut, fusedOut); i >= 0 {
				t.Errorf("geo=%+v mapping=%s: fused output diverges at element %d: %v vs %v",
					g, m, i, fusedOut.Data()[i], refOut.Data()[i])
			}
		}
	}
}

// signedZeros zeroes about a third of t's values, alternating +0 and −0.
func signedZeros(t *tensor.Tensor) {
	for i := range t.Data() {
		switch i % 6 {
		case 1:
			t.Data()[i] = 0
		case 4:
			t.Data()[i] = float32(math.Copysign(0, -1))
		}
	}
}

// TestFusedConvSingleTapMatchesStepLoop pins the single-tap layout (every
// reduction tile one tap, run as one tile over every tap) against the step
// loop on padded layers with negative and −0 weights and ±0 activations,
// with mappings of one-tap tiles interleaved on one engine with multi-tap
// ones (T_C = 2, T_R = 3), so the pooled tile table switches layouts
// between calls.
func TestFusedConvSingleTapMatchesStepLoop(t *testing.T) {
	dims := []tensor.ConvDims{
		{N: 1, C: 6, H: 7, W: 9, K: 16, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 2, C: 4, H: 6, W: 6, K: 12, R: 3, S: 3, G: 2, PadH: 1, PadW: 1},
		{N: 1, C: 4, H: 9, W: 9, K: 20, R: 5, S: 5, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2},
		{N: 1, C: 3, H: 4, W: 3, K: 8, R: 3, S: 3, PadH: 1, PadW: 1},
	}
	maps := []mapping.ConvMapping{
		mapping.Basic(),
		{TR: 1, TS: 1, TC: 2, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},
		{TR: 1, TS: 1, TC: 1, TK: 4, TG: 1, TN: 1, TX: 2, TY: 1}, // one tap per tile, wider elsewhere
		{TR: 3, TS: 1, TC: 1, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},
		mapping.Basic(),
		{TR: 3, TS: 1, TC: 2, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1},
	}
	cfg := maeriCfg(256, 4, 4, true, config.ASNetwork)
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for di, d := range dims {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := tensor.RandomUniform(int64(500+di), 1, d.N, d.H, d.W, d.C)
		ker := tensor.RandomUniform(int64(600+di), 1, d.R, d.S, d.C/d.G, d.K)
		signedZeros(in)
		for i := 0; i < len(ker.Data()); i += 7 {
			ker.Data()[i] = float32(math.Copysign(0, -1))
		}
		for _, m := range maps {
			if err := m.Validate(d, 256); err != nil {
				continue
			}
			fusedOut, fused, err := eng.Conv2D(in, ker, d, m)
			if err != nil {
				t.Fatalf("fused: %v", err)
			}
			refOut, ref, err := oracle.Conv2DNHWC(cfg, in, ker, d, m)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if fused != ref {
				t.Errorf("dims=%+v mapping=[%s]: fused stats diverge:\n fused %+v\n ref   %+v", d, m, fused, ref)
			}
			if i := tensor.FirstBitDiff(refOut, fusedOut); i >= 0 {
				t.Errorf("dims=%+v mapping=[%s]: fused output diverges at element %d: %08x vs %08x",
					d, m, i, math.Float32bits(fusedOut.Data()[i]), math.Float32bits(refOut.Data()[i]))
			}
		}
	}
}

// TestFusedDenseFlatChainMatchesStepLoop pins the flat chain (T_K = 1, run
// as T_K = inN, and T_K = inN itself) and the tiled loop (T_K = 3), at
// batch 1 and 2, over activations that are +0, −0 or live against weights
// of either sign: output bytes and Stats must match the step loop. T_K =
// 2·inN is invalid and both sides must reject it.
func TestFusedDenseFlatChainMatchesStepLoop(t *testing.T) {
	type geo struct{ m, k, n int }
	cfg := maeriCfg(256, 4, 4, true, config.ASNetwork)
	for gi, g := range []geo{{1, 64, 16}, {1, 37, 13}, {1, 9, 3}, {2, 37, 13}} {
		in := tensor.RandomUniform(int64(700+gi), 1, g.m, g.k)
		w := tensor.RandomUniform(int64(800+gi), 1, g.n, g.k)
		signedZeros(in)
		w.Data()[3] = float32(math.Copysign(0, -1))
		for _, tk := range []int{1, 3, g.k, 2 * g.k} {
			m := mapping.FCMapping{TS: 1, TN: 1, TK: tk}
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fusedOut, fused, err := eng.Dense(in, w, m)
			refOut, ref, refErr := oracle.Dense(cfg, in, w, m)
			if m.Validate(g.m, g.k, g.n, 256) != nil {
				if err == nil || refErr == nil {
					t.Errorf("geo=%+v mapping=%s is invalid: fused err %v, reference err %v", g, m, err, refErr)
				}
				continue
			}
			if err != nil || refErr != nil {
				t.Fatalf("geo=%+v mapping=%s: fused err %v, reference err %v", g, m, err, refErr)
			}
			if fused != ref {
				t.Errorf("geo=%+v mapping=%s: fused stats diverge:\n fused %+v\n ref   %+v", g, m, fused, ref)
			}
			if i := tensor.FirstBitDiff(refOut, fusedOut); i >= 0 {
				t.Errorf("geo=%+v mapping=%s: fused output diverges at element %d: %08x vs %08x",
					g, m, i, math.Float32bits(fusedOut.Data()[i]), math.Float32bits(refOut.Data()[i]))
			}
		}
	}
}

// TestDryRunMatchesFullRun ties the dry-run paths to the full-accuracy
// simulation: the counters must be identical whether or not arithmetic is
// performed.
func TestDryRunMatchesFullRun(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 6, H: 9, W: 9, K: 4, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 2, TS: 3, TC: 4, TK: 3, TG: 1, TN: 1, TX: 2, TY: 3}
	cfg := maeriCfg(512, 4, 4, true, config.ASNetwork)
	in := tensor.RandomUniform(42, 1, 1, 9, 9, 6)
	ker := tensor.RandomUniform(7, 1, 3, 3, 6, 4)

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, full, err := eng.Conv2D(in, ker, d, m)
	if err != nil {
		t.Fatal(err)
	}
	eng.DryRun = true
	_, dry, err := eng.Conv2D(nil, nil, d, m)
	if err != nil {
		t.Fatal(err)
	}
	if dry != full {
		t.Errorf("dry-run stats diverge from full run:\n dry  %+v\n full %+v", dry, full)
	}
}

// TestEngineReuse exercises the pooled-scratch reuse of the fused kernel:
// repeated calls on one engine must report the same stats and output bytes.
func TestEngineReuse(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 3, TS: 3, TC: 2, TK: 2, TG: 1, TN: 1, TX: 2, TY: 2}
	cfg := maeriCfg(256, 4, 4, false, config.ASNetwork)
	in := tensor.RandomUniform(1, 1, 1, 8, 8, 4)
	ker := tensor.RandomUniform(2, 1, 3, 3, 4, 4)

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out1, st1, err := eng.Conv2D(in, ker, d, m)
	if err != nil {
		t.Fatal(err)
	}
	out2, st2, err := eng.Conv2D(in, ker, d, m)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("second call on reused engine reported different stats:\n first  %+v\n second %+v", st1, st2)
	}
	if tensor.MaxAbsDiff(out1, out2) != 0 {
		t.Error("second call on reused engine produced different outputs")
	}
}
