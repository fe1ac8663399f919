package farm_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// stamped returns a uniform tensor of the given shape stamped with an
// identity named by seed and shape.
func stamped(seed int64, shape ...int) *tensor.Tensor {
	t := tensor.RandomUniform(seed, 1, shape...)
	t.SetIdentity(sha256.Sum256(fmt.Appendf(nil, "memo seed=%d shape=%v", seed, shape)))
	return t
}

// TestOutputMemoClassesShareOneEntry sweeps a small conv space (both
// layouts) and an FC space through one pack cache with stamped operands.
// Every result must equal the oracle's, and the cache must take exactly one
// put per canonical reduction order: a conv's (T_C, T_R, T_S), with all-ones
// folded into one tile spanning (C/G, R, S), and a dense layer's T_K, with 1
// folded into K. More puts would mean one class split over entries; fewer,
// two classes — whose outputs differ bitwise — sharing one.
func TestOutputMemoClassesShareOneEntry(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	d := tensor.ConvDims{N: 1, G: 1, C: 4, H: 5, W: 5, K: 4, R: 3, S: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	convOps := map[tensor.Layout][2]*tensor.Tensor{
		tensor.NCHW: {stamped(1, 1, 4, 5, 5), stamped(2, 4, 4, 3, 3)},
		tensor.NHWC: {stamped(1, 1, 5, 5, 4), stamped(2, 3, 3, 4, 4)},
	}
	for layout, ops := range convOps {
		pc := tensor.NewPackCache(0, 0)
		classes := map[[3]int]bool{}
		for tr := 1; tr <= d.R; tr++ {
			for ts := 1; ts <= d.S; ts++ {
				for tc := 1; tc <= d.C; tc++ {
					for _, tk := range []int{1, 2} {
						m := mapping.ConvMapping{TR: tr, TS: ts, TC: tc, TK: tk, TG: 1, TN: 1, TX: 1, TY: 1}
						class := [3]int{tc, tr, ts}
						if class == [3]int{1, 1, 1} {
							class = [3]int{d.C, d.R, d.S}
						}
						classes[class] = true
						memoMatchesOracle(t, farm.Job{HW: cfg, Kind: farm.Conv2D, Layout: layout, Dims: d,
							ConvMapping: m, Input: ops[0], Weights: ops[1]}, pc)
					}
				}
			}
		}
		want := int64(len(classes))
		if layout == tensor.NCHW {
			want++ // the kernel's RSCK form, built by the first miss
		}
		if st := pc.Stats(); st.Puts != want || st.Entries != want {
			t.Errorf("%s conv: %d puts and %d entries over %d reduction orders, want %d each: %+v",
				layout, st.Puts, st.Entries, len(classes), want, st)
		}
	}

	pc := tensor.NewPackCache(0, 0)
	in, w := stamped(3, 2, 12), stamped(4, 8, 12)
	classes := map[int]bool{}
	for _, ts := range []int{1, 2, 4, 8} {
		for tk := 1; tk <= 12; tk++ {
			class := tk
			if tk == 1 {
				class = 12
			}
			classes[class] = true
			memoMatchesOracle(t, farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: mapping.FCMapping{TS: ts, TK: tk, TN: 1},
				Input: in, Weights: w}, pc)
		}
	}
	if st := pc.Stats(); st.Puts != int64(len(classes)) || st.Entries != int64(len(classes)) {
		t.Errorf("dense: %d puts and %d entries over %d reduction orders, want %d each: %+v",
			st.Puts, st.Entries, len(classes), len(classes), st)
	}
}

// memoMatchesOracle runs j through pc and on the oracle and fails t unless
// both succeed with bit-identical outputs and equal Stats.
func memoMatchesOracle(t *testing.T, j farm.Job, pc *tensor.PackCache) {
	t.Helper()
	got, err := farm.Run(j.WithPackCache(pc))
	if err != nil {
		t.Fatalf("%v %v: %v", j.ConvMapping, j.FCMapping, err)
	}
	j.Reference = true
	want, err := farm.Run(j)
	if err != nil {
		t.Fatalf("oracle %v %v: %v", j.ConvMapping, j.FCMapping, err)
	}
	if err := farmtest.DiffResults(want, got); err != nil {
		t.Fatalf("%v %v: memoised result diverges from the oracle: %v", j.ConvMapping, j.FCMapping, err)
	}
}

// TestOutputMemoNeedsFreeKey pins the path of a layer whose input has no
// identity — every activation of a model run: it computes as before,
// leaves the input without an identity (nothing hashed it) and adds no
// output entry; the NCHW conv's one entry is its kernel's RSCK form.
func TestOutputMemoNeedsFreeKey(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	d := tensor.ConvDims{N: 1, G: 1, C: 4, H: 5, W: 5, K: 4, R: 3, S: 3, PadH: 1, PadW: 1}
	for _, c := range []struct {
		name    string
		job     farm.Job
		entries int64
	}{
		{"conv NCHW", farm.Job{Kind: farm.Conv2D, Layout: tensor.NCHW, Dims: d, ConvMapping: mapping.Basic(),
			Input: tensor.RandomUniform(1, 1, 1, 4, 5, 5), Weights: stamped(2, 4, 4, 3, 3)}, 1},
		{"conv NHWC", farm.Job{Kind: farm.Conv2D, Layout: tensor.NHWC, Dims: d, ConvMapping: mapping.Basic(),
			Input: tensor.RandomUniform(1, 1, 1, 5, 5, 4), Weights: stamped(2, 3, 3, 4, 4)}, 0},
		{"dense", farm.Job{Kind: farm.Dense, FCMapping: mapping.BasicFC(),
			Input: tensor.RandomUniform(3, 1, 2, 12), Weights: stamped(4, 8, 12)}, 0},
	} {
		pc := tensor.NewPackCache(0, 0)
		c.job.HW = cfg
		for range 2 {
			memoMatchesOracle(t, c.job, pc)
		}
		if _, ok := c.job.Input.Identity(); ok {
			t.Errorf("%s: the input gained an identity", c.name)
		}
		if st := pc.Stats(); st.Entries != c.entries {
			t.Errorf("%s: %d pack-cache entries, want %d: %+v", c.name, st.Entries, c.entries, st)
		}
	}
}

// TestOutputMemoChecksShapesFirst gives a job operands whose identities
// match a cached output's but whose shapes disagree with its geometry: an
// identity covers elements, not shape, so the job must fail on the first
// call and on the second, never be served the cached output.
func TestOutputMemoChecksShapesFirst(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	d := tensor.ConvDims{N: 1, G: 1, C: 4, H: 5, W: 5, K: 4, R: 3, S: 3, PadH: 1, PadW: 1}
	convIn, convW := stamped(1, 1, 5, 5, 4), stamped(2, 3, 3, 4, 4)
	denseIn, denseW := stamped(3, 2, 12), stamped(4, 8, 12)
	conv := farm.Job{HW: cfg, Kind: farm.Conv2D, Layout: tensor.NHWC, Dims: d, ConvMapping: mapping.Basic(), Input: convIn, Weights: convW}
	dense := farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: mapping.BasicFC(), Input: denseIn, Weights: denseW}
	// A reshape shares its source's elements, so it may carry its identity.
	reshaped := func(src *tensor.Tensor, shape ...int) *tensor.Tensor {
		t := src.Reshape(shape...)
		id, _ := src.Identity()
		t.SetIdentity(id)
		return t
	}
	for _, c := range []struct {
		name      string
		good, bad farm.Job
	}{
		{"conv input", conv, withOperands(conv, reshaped(convIn, 1, 4, 5, 5), convW)},
		{"conv kernel", conv, withOperands(conv, convIn, reshaped(convW, 4, 4, 3, 3))},
		{"conv NCHW read as NHWC", conv, withOperands(conv, reshaped(convIn, 1, 4, 5, 5), reshaped(convW, 4, 4, 3, 3))},
		{"dense weights", dense, withOperands(dense, denseIn, reshaped(denseW, 12, 8))},
		{"dense input", dense, withOperands(dense, reshaped(denseIn, 1, 24), denseW)},
	} {
		pc := tensor.NewPackCache(0, 0)
		memoMatchesOracle(t, c.good, pc)
		for call := 1; call <= 2; call++ {
			if res, err := farm.Run(c.bad.WithPackCache(pc)); err == nil {
				t.Errorf("%s: call %d succeeded with shapes %v, %v: %v", c.name, call,
					c.bad.Input.Shape(), c.bad.Weights.Shape(), res.Out)
			}
		}
	}
}

func withOperands(j farm.Job, in, w *tensor.Tensor) farm.Job {
	j.Input, j.Weights = in, w
	return j
}
