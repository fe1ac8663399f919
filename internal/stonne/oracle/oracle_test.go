package oracle

import (
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
	"repro/internal/topi"
)

var archs = []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense}

// The engines are checked against the oracle; these tests check the oracle
// against the CPU operator inventory, so it is a ground truth in its own
// right and not only relative to what it validates.

func TestConvMatchesTopi(t *testing.T) {
	d := tensor.ConvDims{N: 2, C: 4, H: 7, W: 6, K: 6, R: 3, S: 2, G: 2, StrideH: 2, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 2, TS: 2, TC: 2, TK: 2, TG: 1, TN: 1, TX: 2, TY: 1}
	in := tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	ker := tensor.RandomUniform(2, 1, d.K, d.C/d.G, d.R, d.S)
	want, err := topi.Conv2DNCHW(in, ker, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range archs {
		cfg := config.Default(ct)
		nchw, st, err := Conv2DNCHW(cfg, in, ker, d, m)
		if err != nil {
			t.Fatalf("%s NCHW: %v", ct, err)
		}
		if !tensor.AllClose(want, nchw, 1e-4) {
			t.Errorf("%s NCHW output wrong: max diff %v", ct, tensor.MaxAbsDiff(want, nchw))
		}
		nhwc, st2, err := Conv2DNHWC(cfg, tensor.NCHWToNHWC(in), tensor.KCRSToRSCK(ker), d, m)
		if err != nil {
			t.Fatalf("%s NHWC: %v", ct, err)
		}
		if i := tensor.FirstBitDiff(tensor.NCHWToNHWC(nchw), nhwc); i >= 0 {
			t.Errorf("%s: NHWC output differs from NCHW at element %d", ct, i)
		}
		if st != st2 || st.Cycles <= 0 || st.MACs <= 0 {
			t.Errorf("%s: layouts disagree on the counters, or none were reported:\n NCHW %+v\n NHWC %+v", ct, st, st2)
		}
		dry, err := ConvStats(cfg, d, m)
		if ct != config.MAERIDenseWorkload {
			if err == nil {
				t.Errorf("%s must refuse a counters-only run", ct)
			}
			continue
		}
		if err != nil || dry != st {
			t.Errorf("counters-only run diverges from the full one (err %v):\n dry  %+v\n full %+v", err, dry, st)
		}
	}
}

func TestDenseMatchesTopi(t *testing.T) {
	in := tensor.RandomUniform(3, 1, 3, 29)
	w := tensor.RandomUniform(4, 1, 11, 29)
	tensor.Prune(w, 0.4)
	m := mapping.FCMapping{TS: 4, TK: 5, TN: 1}
	want, err := topi.Dense(in, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range archs {
		got, st, err := Dense(config.Default(ct), in, w, m)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, got, 1e-4) {
			t.Errorf("%s dense output wrong: max diff %v", ct, tensor.MaxAbsDiff(want, got))
		}
		if st.Cycles <= 0 || st.Outputs != 33 {
			t.Errorf("%s: implausible counters %+v", ct, st)
		}
	}
}

func TestRejections(t *testing.T) {
	a, b := tensor.New(4, 8), tensor.New(8, 2)
	if _, _, err := GEMM(config.Default(config.MAERIDenseWorkload), a, b); err == nil {
		t.Error("MAERI has no raw GEMM")
	}
	if _, _, err := GEMM(config.Default(config.TPUOSDense), a, tensor.New(7, 2)); err == nil {
		t.Error("mismatched inner dimensions must be rejected")
	}
	bad := config.Default(config.SIGMASparseGEMM)
	bad.MSSize = 12
	if _, _, err := Dense(bad, tensor.New(1, 8), a, mapping.BasicFC()); err == nil {
		t.Error("an invalid configuration must be rejected")
	}
	if _, err := DenseStats(config.Default(config.TPUOSDense), 1, 8, 4, mapping.BasicFC()); err == nil {
		t.Error("the TPU must refuse a counters-only run")
	}
	d := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 2, R: 3, S: 3, DilationH: 2, DilationW: 2}
	if _, err := ConvStats(config.Default(config.MAERIDenseWorkload), d, mapping.Basic()); err == nil {
		t.Error("MAERI must reject dilation")
	}
}
