package maeri

import (
	"runtime"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// TestParallelFusedBitIdentical runs the fused kernels on AlexNet's conv1,
// conv2, fc6 and fc8 (plus a dense layer with a partial last neuron quad
// and two batch rows) at GOMAXPROCS 1 and 4: the output bytes must match,
// and at 4 the layer must have been split.
func TestParallelFusedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet-sized layers")
	}
	eng, err := NewEngine(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	type layer struct {
		name string
		run  func() (*tensor.Tensor, error)
	}
	conv := func(d tensor.ConvDims, m mapping.ConvMapping) func() (*tensor.Tensor, error) {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := tensor.RandomUniform(1, 1, d.N, d.H, d.W, d.C)
		ker := tensor.RandomUniform(2, 1, d.R, d.S, d.C/d.G, d.K)
		return func() (*tensor.Tensor, error) {
			out, _, err := eng.Conv2D(in, ker, d, m)
			return out, err
		}
	}
	dense := func(batches, inN, outN int, m mapping.FCMapping) func() (*tensor.Tensor, error) {
		in := tensor.RandomUniform(3, 1, batches, inN)
		w := tensor.RandomUniform(4, 1, outN, inN)
		return func() (*tensor.Tensor, error) {
			out, _, err := eng.Dense(in, w, m)
			return out, err
		}
	}
	layers := []layer{
		{"conv1", conv(tensor.ConvDims{N: 1, C: 3, H: 227, W: 227, K: 96, R: 11, S: 11, StrideH: 4, StrideW: 4}, mapping.Basic())},
		{"conv2", conv(tensor.ConvDims{N: 1, C: 96, H: 27, W: 27, K: 256, R: 5, S: 5, G: 2, PadH: 2, PadW: 2},
			mapping.ConvMapping{TR: 5, TS: 5, TC: 4, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1})},
		{"fc6", dense(1, 9216, 4096, mapping.BasicFC())},
		{"fc8", dense(1, 4096, 1000, mapping.FCMapping{TS: 4, TK: 32, TN: 1})},
		{"fc 2x2048→1003", dense(2, 2048, 1003, mapping.FCMapping{TS: 2, TK: 48, TN: 1})},
	}
	for _, l := range layers {
		var outs [2]*tensor.Tensor
		var launches [2]int64
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := tensor.HelperLaunches()
			out, err := l.run()
			launches[i] = tensor.HelperLaunches() - before
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
			outs[i] = out
		}
		if i := tensor.FirstBitDiff(outs[0], outs[1]); i >= 0 {
			t.Errorf("%s: element %d differs between GOMAXPROCS 1 and 4", l.name, i)
		}
		if launches[0] != 0 || launches[1] == 0 {
			t.Errorf("%s: helpers started at GOMAXPROCS 1 / 4: %d / %d, want 0 / > 0", l.name, launches[0], launches[1])
		}
	}
}
