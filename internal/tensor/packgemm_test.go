package tensor

import (
	"fmt"
	"math"
	"testing"
)

// refGEMM computes the reference product with the scalar skip-zero ikj
// loop — the oracle every kernel (packed micro-kernel, sparse-stationary
// axpy and skinny interleave) must match bit for bit: ascending-K
// per-element summation in one running chain.
func refGEMM(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b)
	out := New(m, n)
	for i := 0; i < m; i++ {
		crow := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.data[i*k+p]
			if av == 0 {
				continue
			}
			brow := b.data[p*n : (p+1)*n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
	return out
}

// TestPackedGEMMBitwiseEqual pins the packed micro-kernel to the reference
// loop across shapes that exercise every edge case: micro-tile remainders on
// both output axes, K panels with remainders, K spanning multiple panels,
// skinny operands, and sparse stationary operands (where the reference loop
// skips zero rows — a bitwise no-op the packed kernel must reproduce).
func TestPackedGEMMBitwiseEqual(t *testing.T) {
	type geo struct{ m, k, n int }
	geos := []geo{
		{4, 8, 4},
		{5, 9, 7}, // remainders everywhere
		{64, 64, 64},
		{63, 65, 61},   // remainders at block scale
		{128, 300, 96}, // K panel remainder (300 > packKC)
		{1, 128, 128},  // single row (below packMR)
		{128, 1, 128},  // K below the panel floor
		{97, 257, 33},
		{256, 512, 8},
	}
	for _, g := range geos {
		for _, sparsity := range []float64{0, 0.5, 0.95} {
			t.Run(fmt.Sprintf("%dx%dx%d_s%.2f", g.m, g.k, g.n, sparsity), func(t *testing.T) {
				a := RandomUniform(int64(g.m*1000+g.k), 1, g.m, g.k)
				b := RandomUniform(int64(g.n*1000+g.k), 1, g.k, g.n)
				if sparsity > 0 {
					Prune(a, sparsity)
				}
				want := refGEMM(a, b)

				packed := New(g.m, g.n)
				gemmPackedRange(a.data, b.data, packed.data, g.k, g.n, 0, g.m, 0)
				if i := FirstBitDiff(want, packed); i >= 0 {
					t.Fatalf("packed kernel diverges at element %d: %v vs %v", i, packed.data[i], want.data[i])
				}

				for _, got := range []*Tensor{
					GEMM(a, b),
					GEMMBlocked(a, b, 0),
					GEMMBlocked(a, b, 37), // awkward K panel
					GEMMBlocked(a, b, 128),
					bandedGEMM(a, b, g.m),
					bandedGEMM(a, b, 16),
					bandedGEMM(a, b, 5),
				} {
					if i := FirstBitDiff(want, got); i >= 0 {
						t.Fatalf("routed GEMM diverges at element %d: %v vs %v", i, got.data[i], want.data[i])
					}
				}
			})
		}
	}
}

// TestSparseGEMMBitwiseEqual pins the sparse-stationary kernel — the skinny
// row interleave below packNR columns, the compacted AVX axpy from there up
// — to the scalar skip-zero loop, bit for bit: every width around the
// skinny/wide switch and the vector step, row counts that leave the
// interleave a remainder, K past one compaction block, every density from
// an all-zero operand to a full one, and weights that are −0 (skipped by
// the oracle, multiplied by the skinny route) or denormal. It runs once on
// the AVX kernels and once on the pure-Go fallbacks.
func TestSparseGEMMBitwiseEqual(t *testing.T) {
	check := func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} {
			for _, m := range []int{1, 3, 4, 6, 9} {
				for _, density := range []float64{0, 0.1, 0.5, 1} {
					k := 37
					if n >= 255 && m == 6 {
						k = sparseKBlock + 11
					}
					a := RandomUniform(int64(n*100+m), 1, m, k)
					b := RandomUniform(int64(n*100+k), 1, k, n)
					Prune(a, 1-density)
					for i := 0; i < len(a.data); i += 5 {
						switch {
						case a.data[i] == 0:
							a.data[i] = float32(math.Copysign(0, -1))
						case i%2 == 0:
							a.data[i] = math.Float32frombits(uint32(1 + i)) // denormal
						}
					}
					want := refGEMM(a, b)
					got := New(m, n)
					gemmSparse(a.data, b.data, got.data, 0, m, k, n)
					if i := FirstBitDiff(want, got); i >= 0 {
						t.Fatalf("%dx%dx%d density %.1f: element %d is %v (%08x), oracle %v (%08x)", m, k, n, density,
							i, got.data[i], math.Float32bits(got.data[i]), want.data[i], math.Float32bits(want.data[i]))
					}
				}
			}
		}
	}
	t.Run(SIMDLevel(), check)
	if hasAVX {
		hasAVX = false
		defer func() { hasAVX = true }()
		t.Run("scalar", check)
	}
}

// TestPackedGEMMRowRange checks band-restricted packed execution: disjoint
// bands must tile the full product.
func TestPackedGEMMRowRange(t *testing.T) {
	const m, k, n = 70, 90, 50
	a := RandomUniform(3, 1, m, k)
	b := RandomUniform(4, 1, k, n)
	want := refGEMM(a, b)
	got := New(m, n)
	for _, band := range [][2]int{{0, 17}, {17, 64}, {64, 70}} {
		gemmPackedRange(a.data, b.data, got.data, k, n, band[0], band[1], 0)
	}
	if i := FirstBitDiff(want, got); i >= 0 {
		t.Fatalf("banded packed GEMM diverges at element %d", i)
	}
}

// BenchmarkGEMMKernels compares the packed micro-kernel route against the
// reference loop it replaced (the PR 4 satellite: GEMMBlocked used to lose
// to naive GEMM; both now route through the packed kernel).
func BenchmarkGEMMKernels(b *testing.B) {
	const s = 256
	x := RandomUniform(1, 1, s, s)
	y := RandomUniform(2, 1, s, s)
	b.Run("reference_ikj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refGEMM(x, y)
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GEMM(x, y)
		}
	})
	b.Run("packed_blocked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			GEMMBlocked(x, y, 0)
		}
	})
}
