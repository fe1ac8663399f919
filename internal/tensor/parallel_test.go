package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// atProcs runs f with GOMAXPROCS set to n.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// bandedGEMM computes a × b one row band per ParallelFor chunk, each band on
// the route GEMM would pick for it: disjoint bands must tile the product
// bit for bit, however the chunks fell.
func bandedGEMM(a, b *Tensor, grain int) *Tensor {
	m, k, n := gemmDims(a, b)
	out := New(m, n)
	sparse := sparseWorthSkipping(a.data)
	ParallelFor(m, grain, func(lo, hi int) {
		if sparse || !packedWorthIt(hi-lo, k, n) {
			gemmSparse(a.data, b.data, out.data, lo, hi, k, n)
			return
		}
		gemmPackedRange(a.data, b.data, out.data, k, n, lo, hi, 0)
	})
	return out
}

// TestParallelForBandOwnership pins ParallelFor's contract — every index in
// exactly one chunk — and that row bands cut by it tile a GEMM bit for bit.
func TestParallelForBandOwnership(t *testing.T) {
	before := HelperLaunches()
	atProcs(4, func() {
		for _, n := range []int{1, 2, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 16, n} {
				seen := make([]atomic.Int32, n)
				ParallelFor(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
				})
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("n=%d grain=%d: index %d ran %d times", n, grain, i, c)
					}
				}
			}
		}
		for _, s := range [][3]int{{1, 1, 1}, {17, 33, 9}, {64, 64, 64}, {65, 129, 63}} {
			a := RandomUniform(5, 1, s[0], s[1])
			b := RandomUniform(6, 1, s[1], s[2])
			want := GEMM(a, b)
			for _, grain := range []int{1, 3, 16} {
				if i := FirstBitDiff(want, bandedGEMM(a, b, grain)); i >= 0 {
					t.Fatalf("shape %v grain=%d: element %d differs from GEMM", s, grain, i)
				}
			}
		}
	})
	if HelperLaunches() == before {
		t.Fatal("no helper was started at GOMAXPROCS=4")
	}
}

// TestParallelForPanicReachesCaller panics in one chunk of a split loop:
// whichever goroutine ran it, the panic must surface on the caller, where
// the farm's per-job recovery can see it.
func TestParallelForPanicReachesCaller(t *testing.T) {
	atProcs(4, func() {
		for _, bad := range []int{0, 7} {
			func() {
				defer func() {
					if r := recover(); r != "bad chunk" {
						t.Errorf("chunk %d: recovered %v, want the chunk's panic", bad, r)
					}
				}()
				ParallelFor(8, 1, func(lo, hi int) {
					if lo <= bad && bad < hi {
						panic("bad chunk")
					}
				})
			}()
		}
	})
}

// TestParallelConvGEMMImplicitWorkers runs a conv whose every column panel
// is above the split threshold at worker bounds 1, 2, 3 and 7, on the packed
// (dense kernel) and sparse-stationary (pruned kernel) routes: the output
// bytes never change, and a bound above 1 splits.
func TestParallelConvGEMMImplicitWorkers(t *testing.T) {
	d := ConvDims{N: 1, C: 64, H: 45, W: 45, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := RandomUniform(7, 1, d.N, d.C, d.H, d.W)
	for _, sparsity := range []float64{0, 0.5} {
		kernel := RandomUniform(8, 1, d.K, d.C, d.R, d.S)
		Prune(kernel, sparsity)
		want := ConvGEMMImplicit(in, kernel, d, 1)
		atProcs(8, func() {
			for _, workers := range []int{1, 2, 3, 7} {
				before := HelperLaunches()
				got := ConvGEMMImplicit(in, kernel, d, workers)
				if i := FirstBitDiff(want, got); i >= 0 {
					t.Fatalf("sparsity %.1f workers=%d: element %d differs from the serial sweep", sparsity, workers, i)
				}
				if split := HelperLaunches() > before; split != (workers > 1) {
					t.Errorf("sparsity %.1f workers=%d: split=%v", sparsity, workers, split)
				}
			}
		})
	}
}

// TestParallelKernelsBitIdentical runs the tensor kernels ParallelFor splits
// on AlexNet-sized shapes at GOMAXPROCS 1 and 4: SIGMA's conv lowering on
// conv1 and conv2 (pruned kernels) and the skinny GEMM behind SIGMA's fc6
// and fc8. Outputs must match byte for byte, and the second run must split.
// SIGMA's conv3, whose rows split instead of its blocks, also runs at
// GOMAXPROCS 2, and a sweep-sized conv must not split at all.
func TestParallelKernelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("AlexNet-sized layers")
	}
	type kernel struct {
		name string
		run  func() *Tensor
	}
	var kernels []kernel
	for _, d := range []ConvDims{
		{N: 1, C: 3, H: 227, W: 227, K: 96, R: 11, S: 11, StrideH: 4, StrideW: 4},
		{N: 1, C: 96, H: 27, W: 27, K: 256, R: 5, S: 5, G: 2, PadH: 2, PadW: 2},
	} {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := RandomUniform(1, 1, d.N, d.C, d.H, d.W)
		ker := RandomUniform(2, 1, d.K, d.C/d.G, d.R, d.S)
		Prune(ker, 0.5)
		kernels = append(kernels, kernel{fmt.Sprintf("conv C%d K%d", d.C, d.K), func() *Tensor { return ConvGEMMImplicit(in, ker, d, 0) }})
	}
	for _, fc := range [][2]int{{9216, 4096}, {4096, 1000}} {
		w := RandomUniform(3, 1, fc[1], fc[0])
		Prune(w, 0.5)
		x := RandomUniform(4, 1, fc[0], 1)
		kernels = append(kernels, kernel{fmt.Sprintf("fc %d→%d", fc[0], fc[1]), func() *Tensor { return GEMM(w, x) }})
	}
	for _, k := range kernels {
		var serial, split *Tensor
		atProcs(1, func() { serial = k.run() })
		before := HelperLaunches()
		atProcs(4, func() { split = k.run() })
		if i := FirstBitDiff(serial, split); i >= 0 {
			t.Errorf("%s: element %d differs between GOMAXPROCS 1 and 4", k.name, i)
		}
		if HelperLaunches() == before {
			t.Errorf("%s: no helper started at GOMAXPROCS=4", k.name)
		}
	}

	// SIGMA's conv3: its 169 output columns are one block, so only the
	// block's stationary rows can split — at GOMAXPROCS 2 as well, the
	// benchmark's box. A sweep-sized conv must stay serial.
	conv3 := ConvDims{N: 1, C: 256, H: 13, W: 13, K: 384, R: 3, S: 3, PadH: 1, PadW: 1}
	sweep := ConvDims{N: 1, C: 64, H: 6, W: 6, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	for _, d := range []*ConvDims{&conv3, &sweep} {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
	}
	in := RandomUniform(5, 1, conv3.N, conv3.C, conv3.H, conv3.W)
	ker := RandomUniform(6, 1, conv3.K, conv3.C, conv3.R, conv3.S)
	Prune(ker, 0.5)
	run := func() *Tensor { return ConvGEMMImplicit(in, ker, conv3, 0) }
	var serial *Tensor
	atProcs(1, func() { serial = run() })
	for _, procs := range []int{2, 4} {
		var split *Tensor
		before := HelperLaunches()
		atProcs(procs, func() { split = run() })
		if i := FirstBitDiff(serial, split); i >= 0 {
			t.Errorf("SIGMA conv3: element %d differs between GOMAXPROCS 1 and %d", i, procs)
		}
		if HelperLaunches() == before {
			t.Errorf("SIGMA conv3: no helper started at GOMAXPROCS=%d", procs)
		}
	}
	sin := RandomUniform(7, 1, sweep.N, sweep.C, sweep.H, sweep.W)
	sker := RandomUniform(8, 1, sweep.K, sweep.C, sweep.R, sweep.S)
	Prune(sker, 0.5)
	before := HelperLaunches()
	atProcs(4, func() { ConvGEMMImplicit(sin, sker, sweep, 0) })
	if n := HelperLaunches() - before; n != 0 {
		t.Errorf("sweep-sized SIGMA conv C64 6×6 K64 started %d helpers, want 0", n)
	}
}
