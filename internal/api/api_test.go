package api

import (
	"strings"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
	"repro/internal/topi"
)

var convCase = tensor.ConvDims{N: 1, C: 3, H: 9, W: 9, K: 4, R: 3, S: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}

func TestConv2DNCHWAllArchitectures(t *testing.T) {
	d := convCase
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	ker := tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S)
	want, err := topi.Conv2DNCHW(in, ker, d)
	if err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 2, TY: 1}
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		out, st, err := Conv2DNCHW(config.Default(ct), in, ker, d, m)
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, out, 1e-3) {
			t.Fatalf("%s: conv output wrong, max diff %v", ct, tensor.MaxAbsDiff(want, out))
		}
		if st.Cycles <= 0 {
			t.Fatalf("%s: no cycles", ct)
		}
	}
}

func TestConv2DNCHWGrouped(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 4, H: 7, W: 7, K: 6, R: 3, S: 3, G: 2, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(5, 1, d.N, d.C, d.H, d.W)
	ker := tensor.RandomUniform(6, 1, d.K, d.C/d.G, d.R, d.S)
	want, err := topi.Conv2DNCHW(in, ker, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		out, _, err := Conv2DNCHW(config.Default(ct), in, ker, d, mapping.Basic())
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, out, 1e-3) {
			t.Fatalf("%s: grouped conv wrong, max diff %v", ct, tensor.MaxAbsDiff(want, out))
		}
	}
}

func TestConv2DNHWCMatchesNCHW(t *testing.T) {
	d := convCase
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(3, 1, d.N, d.C, d.H, d.W)
	ker := tensor.RandomUniform(4, 1, d.K, d.C, d.R, d.S)
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM} {
		cfg := config.Default(ct)
		a, _, err := Conv2DNCHW(cfg, in, ker, d, mapping.Basic())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := Conv2DNHWC(cfg, tensor.NCHWToNHWC(in), tensor.KCRSToRSCK(ker), d, mapping.Basic())
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.AllClose(a, tensor.NHWCToNCHW(b), 1e-3) {
			t.Fatalf("%s: layout paths disagree", ct)
		}
	}
}

func TestDenseAllArchitectures(t *testing.T) {
	in := tensor.RandomUniform(1, 1, 1, 48)
	w := tensor.RandomUniform(2, 1, 24, 48)
	want, err := topi.Dense(in, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		out, st, err := Dense(config.Default(ct), in, w, mapping.FCMapping{TS: 8, TN: 1, TK: 4})
		if err != nil {
			t.Fatalf("%s: %v", ct, err)
		}
		if !tensor.AllClose(want, out, 1e-3) {
			t.Fatalf("%s: dense wrong", ct)
		}
		if st.Outputs != 24 {
			t.Fatalf("%s: outputs = %d", ct, st.Outputs)
		}
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = 3
	d := convCase
	if _, _, err := Conv2DNCHW(cfg, tensor.New(1, 3, 9, 9), tensor.New(4, 3, 3, 3), d, mapping.Basic()); err == nil {
		t.Fatal("invalid hardware config must be rejected at the API boundary")
	}
	if _, _, err := Dense(cfg, tensor.New(1, 4), tensor.New(2, 4), mapping.BasicFC()); err == nil {
		t.Fatal("invalid hardware config must be rejected at the API boundary")
	}
}

func TestBadGeometryRejected(t *testing.T) {
	d := tensor.ConvDims{N: 0, C: 1, H: 4, W: 4, K: 1, R: 3, S: 3}
	if _, _, err := Conv2DNCHW(config.Default(config.MAERIDenseWorkload), nil, nil, d, mapping.Basic()); err == nil {
		t.Fatal("invalid geometry must be rejected")
	}
	if _, _, err := Conv2DNHWC(config.Default(config.MAERIDenseWorkload), nil, nil, d, mapping.Basic()); err == nil {
		t.Fatal("invalid geometry must be rejected")
	}
}

// TestConvOperandShapesChecked: an operand that disagrees with the conv
// geometry is an error on every architecture and through both layout entry
// points — never a panic, and never an output computed from part of it.
func TestConvOperandShapesChecked(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 4, H: 6, W: 6, K: 4, R: 3, S: 3}
	type operands struct{ in, kernel []int }
	entries := []struct {
		name  string
		conv  func(config.HWConfig, *tensor.Tensor, *tensor.Tensor, ConvParams, mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error)
		cases map[string]operands
	}{
		{"NCHW", Conv2DNCHW, map[string]operands{
			"oversized K":   {[]int{1, 4, 6, 6}, []int{8, 4, 3, 3}},
			"permuted dims": {[]int{1, 4, 6, 6}, []int{4, 3, 3, 4}},
			"rank-3 kernel": {[]int{1, 4, 6, 6}, []int{4, 4, 9}},
			"input C":       {[]int{1, 3, 6, 6}, []int{4, 4, 3, 3}},
		}},
		{"NHWC", Conv2DNHWC, map[string]operands{
			"oversized K":   {[]int{1, 6, 6, 4}, []int{3, 3, 4, 8}},
			"permuted dims": {[]int{1, 6, 6, 4}, []int{4, 4, 3, 3}},
			"rank-3 kernel": {[]int{1, 6, 6, 4}, []int{9, 4, 4}},
			"input C":       {[]int{1, 6, 6, 3}, []int{3, 3, 4, 4}},
		}},
	}
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM, config.TPUOSDense} {
		for _, e := range entries {
			for name, ops := range e.cases {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s %s %s: panicked: %v", ct, e.name, name, r)
						}
					}()
					in, ker := tensor.RandomUniform(1, 1, ops.in...), tensor.RandomUniform(2, 1, ops.kernel...)
					out, _, err := e.conv(config.Default(ct), in, ker, d, mapping.Basic())
					if err == nil || out != nil {
						t.Errorf("%s %s %s: err %v, output %v; want an error and no output", ct, e.name, name, err, out != nil)
					}
				}()
			}
		}
	}
}

func TestLayerRecordString(t *testing.T) {
	r := LayerRecord{Name: "conv1", Op: "conv2d", Arch: config.MAERIDenseWorkload, Mapping: "T_R=1"}
	s := r.String()
	for _, want := range []string{"conv1", "conv2d", "MAERI", "T_R=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("record string %q missing %q", s, want)
		}
	}
}

// TestComputeSummariesRecorded checks that a layer execution through the
// API boundary lands in its controller's compute-time histogram and that
// every controller appears in the rollup map.
func TestComputeSummariesRecorded(t *testing.T) {
	before := ComputeSummaries()["maeri"].Count
	d := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 2, R: 3, S: 3}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, 1, 2, 6, 6)
	w := tensor.RandomUniform(2, 1, 2, 2, 3, 3)
	if _, _, err := Conv2DNCHW(config.Default(config.MAERIDenseWorkload), in, w, d, mapping.Basic()); err != nil {
		t.Fatal(err)
	}
	sums := ComputeSummaries()
	for _, c := range []string{"maeri", "sigma", "tpu"} {
		if _, ok := sums[c]; !ok {
			t.Errorf("controller %q missing from compute summaries", c)
		}
	}
	if sums["maeri"].Count != before+1 {
		t.Errorf("maeri compute count = %d, want %d", sums["maeri"].Count, before+1)
	}
	if sums["maeri"].SumMS <= 0 {
		t.Errorf("maeri compute sum = %v ms, want > 0", sums["maeri"].SumMS)
	}
}

// TestMAERIConvPackTrafficIsConstant pins what a MAERI convolution leaves
// in the pack cache: its weights' RSCK transpose and nothing else — not the
// activation, and not one entry per reduction tile (2 304 under the basic
// mapping on this conv3-shaped layer, which is what used to be published).
func TestMAERIConvPackTrafficIsConstant(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 256, H: 13, W: 13, K: 384, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	w := tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S)
	pc := tensor.NewPackCache(0, 0)
	cfg := config.Default(config.MAERIDenseWorkload)
	for run, want := range []tensor.PackStats{
		{Entries: 1, Puts: 1, Misses: 1},
		{Entries: 1, Puts: 1, Misses: 1, Hits: 1},
	} {
		if _, _, err := Conv2DNCHWOpts(cfg, in, w, d, mapping.Basic(), Options{Pack: pc}); err != nil {
			t.Fatal(err)
		}
		got := pc.Stats()
		want.Bytes = got.Bytes
		if got != want {
			t.Fatalf("pack cache after call %d: %+v, want %+v", run+1, got, want)
		}
	}
}
