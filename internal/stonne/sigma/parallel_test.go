package sigma

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestParallelDenseBitIdentical runs SIGMA's dense layer — the skinny
// sparse-stationary GEMM — on AlexNet's fc6 and fc8 over half-pruned
// weights at GOMAXPROCS 1 and 4: outputs and counters must match, and at 4
// the layer must have been split into row bands.
func TestParallelDenseBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet-sized layers")
	}
	e := newEngine(t)
	for _, fc := range [][2]int{{9216, 4096}, {4096, 1000}} {
		in := tensor.RandomUniform(1, 1, 1, fc[0])
		w := tensor.RandomUniform(2, 1, fc[1], fc[0])
		tensor.Prune(w, 0.5)
		var outs [2]*tensor.Tensor
		var launches [2]int64
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := tensor.HelperLaunches()
			out, st, err := e.Dense(in, w)
			launches[i] = tensor.HelperLaunches() - before
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := e.GEMMStats(w, 1); st != want {
				t.Errorf("fc %v: counters %v, want %v", fc, st, want)
			}
			outs[i] = out
		}
		if i := tensor.FirstBitDiff(outs[0], outs[1]); i >= 0 {
			t.Errorf("fc %v: element %d differs between GOMAXPROCS 1 and 4", fc, i)
		}
		if launches[0] != 0 || launches[1] == 0 {
			t.Errorf("fc %v: helpers started at GOMAXPROCS 1 / 4: %d / %d, want 0 / > 0", fc, launches[0], launches[1])
		}
	}
}
