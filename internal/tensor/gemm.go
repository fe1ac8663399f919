package tensor

import "fmt"

// GEMM computes C = A × B for 2-D tensors A (M×K) and B (K×N).
// This is the matrix multiply used by the CPU target and by the GEMM
// lowering of convolutions for the SIGMA and TPU architectures. Large dense
// problems route through the packed register-blocked micro-kernel
// (packgemm.go); small or sparse-stationary ones take the sparse-stationary
// kernel (gemmSparse). Every route accumulates each output element in
// ascending-K order in one running chain, so the float32 result is bitwise
// identical regardless of which kernel ran (pinned by
// TestPackedGEMMBitwiseEqual and TestSparseGEMMBitwiseEqual).
func GEMM(a, b *Tensor) *Tensor {
	m, k, n := gemmDims(a, b)
	out := New(m, n)
	gemmAuto(a.data, b.data, out.data, m, k, n, 0)
	return out
}

// GEMMCached is GEMM with a content-keyed pack cache: when the dense packed
// route runs, B's micro-panels are looked up in (or published to) cache
// instead of repacked, so repeated multiplies against the same operand —
// sweep jobs sharing network weights — pack it exactly once. A nil cache,
// and every route decision, leaves the arithmetic identical to GEMM's; the
// result is bitwise equal in all cases. The output tensor comes from the
// pooled arena (indistinguishable from a fresh one; callers that finish
// with it may Release it).
func GEMMCached(a, b *Tensor, cache *PackCache) *Tensor {
	m, k, n := gemmDims(a, b)
	out := NewPooled(m, n)
	if cache == nil || !packedWorthIt(m, k, n) || sparseWorthSkipping(a.data) {
		gemmAuto(a.data, b.data, out.data, m, k, n, 0)
		return out
	}
	gemmPackedCached(a.data, b, out.data, k, n, 0, m, cache)
	return out
}

// gemmDims validates a GEMM operand pair and returns (M, K, N).
func gemmDims(a, b *Tensor) (int, int, int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: GEMM requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: GEMM inner dimensions differ: %v × %v", a.shape, b.shape))
	}
	return m, k, n
}

// gemmAuto accumulates c += a × b, picking the packed micro-kernel for
// problems where its packing preamble pays off and the sparse-stationary
// kernel otherwise (tiny or skinny shapes, or a stationary operand sparse
// enough that work proportional to its nonzeros beats dense register
// tiling). kc <= 0 selects the tuned K-panel size.
func gemmAuto(a, b, c []float32, m, k, n, kc int) {
	if !packedWorthIt(m, k, n) || sparseWorthSkipping(a) {
		gemmSparse(a, b, c, 0, m, k, n)
		return
	}
	gemmPackedRange(a, b, c, k, n, 0, m, kc)
}

// GEMMBlocked computes C = A × B with explicit cache blocking: block sizes
// the K panel of the packed micro-kernel (block <= 0 selects the tuned
// default, so GEMMBlocked(a, b, 0) ≡ GEMM(a, b) on the dense route). The
// per-element summation order — ascending K in one running chain — and
// therefore the float32 result is bitwise identical to GEMM's for every
// block size.
func GEMMBlocked(a, b *Tensor, block int) *Tensor {
	m, k, n := gemmDims(a, b)
	out := New(m, n)
	gemmAuto(a.data, b.data, out.data, m, k, n, block)
	return out
}

// gemmSparse computes the [i0, i1) row band of C += A × B for the problems
// the packed micro-kernel does not take: a stationary operand A with enough
// zeros to be worth skipping (the SIGMA lowering's pruned weights), or a
// streaming operand B too small or skinny to pack. It is the one
// sparse-stationary kernel behind GEMM and the panel multiply of
// ConvGEMMImplicit. Every output element accumulates its products in
// ascending-K order in one running chain, exactly like the scalar skip-zero
// ikj loop (the test oracle refGEMM), so the result is bitwise equal to it:
//
//   - wide B (n >= packNR, e.g. an im2col panel): one axpy c[i,:] += a·b[p,:]
//     per nonzero A element — the AVX kernel where available, the same
//     multiply-then-add per lane otherwise — so the cost follows the
//     nonzero count at vector width;
//   - skinny B (n < packNR, e.g. a batch-1 dense layer): four A rows are
//     interleaved as independent chains against one B column, which hides
//     the add latency a single chain would serialise on. Zeros are
//     multiplied rather than skipped: a branch per element costs more than
//     the multiply at any density, and for finite operands the skipped
//     products are ±0, a bitwise no-op on an accumulator that can never be
//     −0 (the same finite-operand contract packgemm.go documents). A band
//     big enough to repay it (SIGMA's fully connected layers) is split into
//     row bands across idle cores; each row is one chain either way.
func gemmSparse(a, b, c []float32, i0, i1, k, n int) {
	if n < packNR {
		if grain := Grain(i1-i0, k*n, 0); grain < i1-i0 {
			ParallelFor(i1-i0, grain, func(lo, hi int) { gemmSkinny(a, b, c, i0+lo, i0+hi, k, n) })
			return
		}
		gemmSkinny(a, b, c, i0, i1, k, n)
		return
	}
	// K is blocked so the B rows one sweep over the A band touches stay in
	// L2; blocks are visited in ascending order, so no chain is regrouped.
	// Within a block each A row's nonzero positions are first compacted
	// branch-free (see nonzeroBit; a mispredict costs as much as half an
	// axpy), so the axpy loop itself runs without a data-dependent branch.
	var nzPos [sparseKBlock]int32
	kb := min(max(16, sparseBlockFloats/n), sparseKBlock)
	for p0 := 0; p0 < k; p0 += kb {
		p1 := min(p0+kb, k)
		for i := i0; i < i1; i++ {
			arow := a[i*k+p0 : i*k+p1]
			crow := c[i*n : (i+1)*n]
			nz := 0
			for p, av := range arow {
				nzPos[nz%sparseKBlock] = int32(p) // nz < len(arow) <= sparseKBlock
				nz += nonzeroBit(av)
			}
			axpyRows(nzPos[:nz], arow, b[p0*n:p1*n], n, crow)
		}
	}
}

// Blocking of gemmSparse's wide route: one K block spans at most
// sparseKBlock B rows (the size of the compaction buffer) and about
// sparseBlockFloats values of B (256 KiB).
const (
	sparseKBlock      = 1024
	sparseBlockFloats = 64 << 10
)

// skinnyRows is how many stationary rows gemmSkinny interleaves: enough
// independent chains to cover the float add latency, few enough that the
// accumulators and row cursors stay in registers.
const skinnyRows = 4

// gemmSkinny is gemmSparse for n < packNR: per B column, skinnyRows A rows
// at a time run as independent ascending-K dot-product chains seeded by C.
func gemmSkinny(a, b, c []float32, i0, i1, k, n int) {
	if k == 0 {
		return
	}
	col := b[:k] // n == 1: B is its own single column
	if n > 1 {
		col = getScratch(k)
	}
	for j := 0; j < n; j++ {
		if n > 1 {
			for p := range col {
				col[p] = b[p*n+j]
			}
		}
		i := i0
		for ; i+skinnyRows <= i1; i += skinnyRows {
			r0 := a[i*k:][:len(col)]
			r1 := a[(i+1)*k:][:len(col)]
			r2 := a[(i+2)*k:][:len(col)]
			r3 := a[(i+3)*k:][:len(col)]
			c0, c1, c2, c3 := c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j]
			for p, bv := range col {
				c0 += r0[p] * bv
				c1 += r1[p] * bv
				c2 += r2[p] * bv
				c3 += r3[p] * bv
			}
			c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = c0, c1, c2, c3
		}
		for ; i < i1; i++ {
			acc := c[i*n+j]
			for p, av := range a[i*k:][:len(col)] {
				acc += av * col[p]
			}
			c[i*n+j] = acc
		}
	}
	if n > 1 {
		putScratch(col)
	}
}

// ConvDims describes the geometry of a 2-D convolution using the Nvidia
// parameter taxonomy from Table II of the paper.
type ConvDims struct {
	N, C, H, W     int // input: batch, channels, rows, cols
	K, R, S        int // kernel: output channels, rows, cols
	G              int // groups
	StrideH        int
	StrideW        int
	PadH, PadW     int
	DilationH      int
	DilationW      int
	outP, outQ     int
	outputResolved bool
}

// Resolve fills derived fields and validates the geometry.
func (d *ConvDims) Resolve() error {
	if d.G == 0 {
		d.G = 1
	}
	if d.StrideH == 0 {
		d.StrideH = 1
	}
	if d.StrideW == 0 {
		d.StrideW = 1
	}
	if d.DilationH == 0 {
		d.DilationH = 1
	}
	if d.DilationW == 0 {
		d.DilationW = 1
	}
	switch {
	case d.N <= 0 || d.C <= 0 || d.H <= 0 || d.W <= 0:
		return fmt.Errorf("tensor: invalid conv input dims N=%d C=%d H=%d W=%d", d.N, d.C, d.H, d.W)
	case d.K <= 0 || d.R <= 0 || d.S <= 0:
		return fmt.Errorf("tensor: invalid conv kernel dims K=%d R=%d S=%d", d.K, d.R, d.S)
	case d.C%d.G != 0 || d.K%d.G != 0:
		return fmt.Errorf("tensor: groups G=%d must divide C=%d and K=%d", d.G, d.C, d.K)
	}
	effR := (d.R-1)*d.DilationH + 1
	effS := (d.S-1)*d.DilationW + 1
	d.outP = (d.H+2*d.PadH-effR)/d.StrideH + 1
	d.outQ = (d.W+2*d.PadW-effS)/d.StrideW + 1
	if d.outP <= 0 || d.outQ <= 0 {
		return fmt.Errorf("tensor: conv output would be empty (P=%d Q=%d)", d.outP, d.outQ)
	}
	d.outputResolved = true
	return nil
}

// P returns the number of output rows. Resolve must have been called.
func (d *ConvDims) P() int {
	if !d.outputResolved {
		if err := d.Resolve(); err != nil {
			panic(err)
		}
	}
	return d.outP
}

// Q returns the number of output columns. Resolve must have been called.
func (d *ConvDims) Q() int {
	if !d.outputResolved {
		if err := d.Resolve(); err != nil {
			panic(err)
		}
	}
	return d.outQ
}

// MACs returns the total multiply-accumulate count of the convolution.
func (d *ConvDims) MACs() int64 {
	return int64(d.N) * int64(d.K) * int64(d.P()) * int64(d.Q()) *
		int64(d.R) * int64(d.S) * int64(d.C/d.G)
}

// Im2Col lowers an NCHW input tensor to the (C/G·R·S) × (N·P·Q) matrix used
// by GEMM convolution, for a single group g.
func Im2Col(in *Tensor, d ConvDims, g int) *Tensor {
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	cg := d.C / d.G
	p, q := d.P(), d.Q()
	rows := cg * d.R * d.S
	cols := d.N * p * q
	out := New(rows, cols)
	for c := 0; c < cg; c++ {
		ic := g*cg + c
		for r := 0; r < d.R; r++ {
			for s := 0; s < d.S; s++ {
				row := (c*d.R+r)*d.S + s
				dst := out.data[row*cols:]
				col := 0
				for n := 0; n < d.N; n++ {
					for y := 0; y < p; y++ {
						iy := y*d.StrideH - d.PadH + r*d.DilationH
						for x := 0; x < q; x++ {
							ix := x*d.StrideW - d.PadW + s*d.DilationW
							var v float32
							if iy >= 0 && iy < d.H && ix >= 0 && ix < d.W {
								v = in.At(n, ic, iy, ix)
							}
							dst[col] = v
							col++
						}
					}
				}
			}
		}
	}
	return out
}

// KernelMatrix returns group g's (K/G) × (C/G·R·S) kernel matrix, the
// stationary operand of GEMM convolution. A KCRS kernel already holds group
// g's rows g·K/G … (g+1)·K/G contiguously, each in (C, R, S) order, so the
// matrix is a view of the kernel's own storage and must be treated as
// read-only. It panics unless the kernel's shape is [K, C/G, R, S].
func KernelMatrix(kernel *Tensor, d ConvDims, g int) *Tensor {
	rows := kernelRows(kernel, d, g)
	kg := d.K / d.G
	return &Tensor{shape: []int{kg, len(rows) / kg}, data: rows}
}

// kernelRows returns group g's rows of a KCRS kernel in place: K/G rows of
// C/G·R·S values, capped so an append can never reach the next group.
func kernelRows(kernel *Tensor, d ConvDims, g int) []float32 {
	s := kernel.shape
	if len(s) != 4 || s[0] != d.K || s[1] != d.C/d.G || s[2] != d.R || s[3] != d.S {
		panic(fmt.Sprintf("tensor: kernel shape %v does not match KCRS [%d %d %d %d]", s, d.K, d.C/d.G, d.R, d.S))
	}
	n := len(kernel.data) / d.G
	return kernel.data[g*n : (g+1)*n : (g+1)*n]
}
