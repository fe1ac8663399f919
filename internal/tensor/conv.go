package tensor

import (
	"fmt"
	"sync"
)

// This file implements the fused, im2col-free GEMM lowering of convolution:
// instead of materialising the full (C/G·R·S) × (N·P·Q) im2col matrix, the
// streaming operand is produced one column block at a time and multiplied
// against the kernel matrix while still hot in cache. Peak memory drops
// from O(C·R·S·N·P·Q) to O(C·R·S·blockCols) per worker, and a big layer's
// column blocks — or, when it has too few of them, a block's stationary
// rows — are split across idle cores by ParallelFor.

// im2colBlockCols is the number of output positions one panel covers. 256
// columns keeps a 3×3×256-channel panel comfortably inside L2 while leaving
// enough arithmetic per panel to amortise the fill.
const im2colBlockCols = 256

// colCoord is one output position resolved to its batch and top-left input
// coordinates, the per-column state Im2ColBlock sweeps.
type colCoord struct{ n, iy0, ix0 int }

// coordPool recycles Im2ColBlock's per-panel coordinate scratch so the
// steady-state implicit-GEMM path allocates nothing per block.
var coordPool = sync.Pool{New: func() any { s := make([]colCoord, 0, im2colBlockCols); return &s }}

// Im2ColBlock fills dst with the columns [col0, col0+width) of the im2col
// matrix Im2Col(in, d, g) — rows × width, row-major, rows = C/G·R·S. The
// column index enumerates output positions in (N, P, Q) order, exactly as
// Im2Col does. dst must have room for rows × width values.
func Im2ColBlock(in *Tensor, d ConvDims, g, col0, width int, dst []float32) {
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	cg := d.C / d.G
	p, q := d.P(), d.Q()
	rows := cg * d.R * d.S
	if len(dst) < rows*width {
		panic(fmt.Sprintf("tensor: Im2ColBlock dst holds %d values, needs %d", len(dst), rows*width))
	}
	// Decompose each column into its (batch, output-row, output-col)
	// coordinates once, then sweep the kernel-window rows.
	cp := coordPool.Get().(*[]colCoord)
	defer coordPool.Put(cp)
	if cap(*cp) < width {
		*cp = make([]colCoord, width)
	}
	coords := (*cp)[:width]
	for j := 0; j < width; j++ {
		col := col0 + j
		n := col / (p * q)
		rem := col % (p * q)
		y := rem / q
		x := rem % q
		coords[j] = colCoord{
			n:   n,
			iy0: y*d.StrideH - d.PadH,
			ix0: x*d.StrideW - d.PadW,
		}
	}
	inD := in.Data()
	hw := d.H * d.W
	for c := 0; c < cg; c++ {
		ic := g*cg + c
		for r := 0; r < d.R; r++ {
			dy := r * d.DilationH
			for s := 0; s < d.S; s++ {
				dx := s * d.DilationW
				row := (c*d.R+r)*d.S + s
				seg := dst[row*width : (row+1)*width]
				for j, cc := range coords {
					iy := cc.iy0 + dy
					ix := cc.ix0 + dx
					if iy >= 0 && iy < d.H && ix >= 0 && ix < d.W {
						seg[j] = inD[(cc.n*d.C+ic)*hw+iy*d.W+ix]
					} else {
						seg[j] = 0
					}
				}
			}
		}
	}
}

// ConvGEMMImplicit computes a grouped 2-D convolution of an NCHW input with
// a KCRS kernel, returning the NCHW output, via implicit GEMM: per group,
// the kernel matrix — group g's rows, read in place from the kernel —
// multiplies im2col column panels that are generated block-by-block and
// never materialised as a whole. Panels — or, for a layer with too few
// panels to split, the sparse-stationary rows of each panel's product — are
// split over at most `workers` goroutines (workers <= 0: as many as
// ParallelFor's budget has free), and only when the layer is big enough to
// repay it (Grain); each output element is written by exactly one of them
// and accumulated in ascending (C, R, S) order with zero kernel weights
// skipped, so the result is bitwise identical to
// GEMM(KernelMatrix(kernel, d, g), Im2Col(in, d, g)) regardless of the
// worker count. Panel and accumulator scratch is pooled.
// Production callers pass workers 0 (api.Options.Workers has no production
// setter); the parameter stays only because the benchmark harness pins it,
// and goes under ROADMAP item 7.
func ConvGEMMImplicit(in, kernel *Tensor, d ConvDims, workers int) *Tensor {
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	p, q := d.P(), d.Q()
	out := NewPooled(d.N, d.K, p, q)
	c := convPanels{in: in, d: d, outD: out.Data(), kg: d.K / d.G, rows: d.C / d.G * d.R * d.S, cols: d.N * p * q, pq: p * q}
	nBlocks := (c.cols + im2colBlockCols - 1) / im2colBlockCols
	for c.g = 0; c.g < d.G; c.g++ {
		c.kmD = kernelRows(kernel, d, c.g) // kg × rows, weight-stationary
		// Dense kernels take the packed register-blocked micro-kernel;
		// pruned ones (the SIGMA lowering) the sparse-stationary kernel.
		// Both accumulate each output element in ascending (C, R, S) order
		// in one running chain, so the result is bitwise identical.
		c.packed = packedWorthIt(c.kg, c.rows, min(im2colBlockCols, c.cols)) && !sparseWorthSkipping(c.kmD)
		c.rowWorkers = 1
		if grain := Grain(nBlocks, c.kg*c.rows*im2colBlockCols, workers); grain < nBlocks {
			group := c // the closure's own copy: c is reassigned by the loop
			ParallelFor(nBlocks, grain, func(lo, hi int) { group.blocks(lo, hi) })
			continue
		}
		// Blocks too few to split (a small layer is a single block) may
		// still split their stationary rows.
		c.rowWorkers = workers
		c.blocks(0, nBlocks)
	}
	return out
}

// ConvGEMMImplicitCached is ConvGEMMImplicit: the kernel matrix is a view of
// the kernel, so there is nothing left for cache to keep. The form has no
// product caller and stays only for the benchmark harness
// (benchmark/ladder.go); it goes under ROADMAP item 7.
func ConvGEMMImplicitCached(in, kernel *Tensor, d ConvDims, workers int, cache *PackCache) *Tensor {
	return ConvGEMMImplicit(in, kernel, d, workers)
}

// KernelMatrixCached returns KernelMatrix(kernel, d, g), serving the view
// from the content-keyed pack cache when one is supplied. The cached view
// carries a content identity of its own, so a form derived from it (SIGMA's
// row summary) hashes the matrix at most once per cache lifetime — and
// never when G = 1, where the view holds the kernel's elements in the
// kernel's order and takes the kernel's memoised hash. The result is shared
// and must be treated as read-only.
func KernelMatrixCached(kernel *Tensor, d ConvDims, g int, cache *PackCache) *Tensor {
	if cache == nil {
		return KernelMatrix(kernel, d, g)
	}
	h := kernel.ContentHash()
	key := PackKey{Op: "conv/kernelmatrix/v1", Hash: h, P: [6]int{g, d.K, d.C, d.R, d.S, d.G}}
	return cache.GetOrBuild(key, func() *Tensor {
		km := KernelMatrix(kernel, d, g)
		if d.G == 1 {
			kh := h // a copy, so only a miss moves the hash to the heap
			km.chash.Store(&kh)
		}
		return km
	})
}

// convPanels is the state of one group's implicit-GEMM sweep: the kernel
// matrix kmD (kg × rows) multiplies im2col panels of up to im2colBlockCols
// columns into the NCHW output outD. It is a value so the serial sweep keeps
// it on the stack; only a split sweep, whose closure holds a copy, pays for
// sharing it.
type convPanels struct {
	in                 *Tensor
	d                  ConvDims
	g                  int
	kmD, outD          []float32
	kg, rows, cols, pq int
	packed             bool
	// rowWorkers bounds the split of one block's stationary rows (≤ 0: the
	// budget's free helpers, 1: none); set only when the blocks themselves
	// run serially.
	rowWorkers int
}

// blocks computes column panels [lo, hi) of the group's product, with its
// own panel and accumulator scratch.
func (c *convPanels) blocks(lo, hi int) {
	panel := getScratch(c.rows * im2colBlockCols)
	acc := getScratch(c.kg * im2colBlockCols)
	for b := lo; b < hi; b++ {
		c.block(panel, acc, b)
	}
	putScratch(acc)
	putScratch(panel)
}

// block computes column panel `block` of the group's product in acc and
// scatters it into the output; panel and acc are caller-owned scratch.
func (c *convPanels) block(panel, acc []float32, block int) {
	col0 := block * im2colBlockCols
	width := min(im2colBlockCols, c.cols-col0)
	panel = panel[:c.rows*width]
	Im2ColBlock(c.in, c.d, c.g, col0, width, panel)
	acc = acc[:c.kg*width]
	clear(acc)
	if c.packed {
		gemmPackedAccum(c.kmD, panel, acc, c.kg, c.rows, width)
	} else if grain := Grain(c.kg, c.rows*width, c.rowWorkers); grain < c.kg {
		// Row bands of the sparse-stationary product: each row is still
		// one chain, and has one writer. The closure copies what it reads,
		// so c itself stays on the caller's stack.
		kmD, b, cc, k := c.kmD, panel, acc, c.rows
		ParallelFor(c.kg, grain, func(lo, hi int) { gemmSparse(kmD, b, cc, lo, hi, k, width) })
	} else {
		gemmSparse(c.kmD, panel, acc, 0, c.kg, c.rows, width)
	}
	// Scatter the block into the NCHW output: column col maps to batch
	// col/(P·Q) and plane offset col%(P·Q), so each row of acc copies out
	// in contiguous runs within one batch.
	for kk := 0; kk < c.kg; kk++ {
		ch := c.g*c.kg + kk
		for j := 0; j < width; {
			col := col0 + j
			n, rem := col/c.pq, col%c.pq
			runLen := min(width-j, c.pq-rem)
			copy(c.outD[(n*c.d.K+ch)*c.pq+rem:][:runLen], acc[kk*width+j:])
			j += runLen
		}
	}
}
