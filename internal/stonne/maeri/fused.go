package maeri

import (
	"sync"

	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// This file implements the fused arithmetic: the output half of a
// full-accuracy simulation, decoupled from the counters. A run computes its
// Stats through the analytical models (analytic.go) and its output tensor
// through the kernels here.
//
// Bitwise equality with the oracle package's step loop is the contract. That
// loop's arithmetic has one property the fast path must reproduce exactly,
// because float32 addition is not associative: each output element is
// accumulated per *reduction tile* — a fresh accumulator per (c0, r0, s0)
// (conv) or k0 (dense) tile, summed in ascending (c, r, s) / k order within
// the tile and then added onto the output — with the tiles visited in
// lexicographic order. The fused kernels therefore iterate the same tile
// decomposition in the same order and keep one fresh accumulator per tile;
// only the loops *around* that chain (which outputs are computed together)
// are reorganised for locality and vectorisation-friendly inner loops. Two
// further reference behaviours are preserved: out-of-bounds (padding) taps
// are skipped entirely, and skipping a zero input activation is a bitwise
// no-op (the products it would contribute are ±0, and an accumulator
// starting at +0 can never become −0 under round-to-nearest), which lets
// the fused conv kernel exploit activation sparsity for free. The extended
// equiv_test.go suite pins output bytes, not just Stats.

// redTile is one (c0, r0, s0) reduction-space tile of a conv mapping.
type redTile struct {
	c0, tc, r0, tr, s0, ts int
}

// convScratch is the reusable working state of one fusedConv call,
// recycled through a pool so the steady-state fused path allocates nothing:
// tile tables, tap lists, gather buffers and the per-tile panel tracking.
type convScratch struct {
	tiles     []redTile
	taps      []convTap
	ivs       []float32
	kofs      []int
	panels    [][]float32
	panelSigs [][2]int
	// sharedPanels records that panels currently reference cache-owned
	// (immutable) slices; the next cacheless call must drop them instead of
	// overwriting them in place.
	sharedPanels bool
}

var convScratchPool = sync.Pool{New: func() any { return &convScratch{} }}

// convRedTiles enumerates the reduction tiles in the step loop's visit
// order: c0 outermost, then r0, then s0, appending into tiles (reused
// scratch).
func convRedTiles(d tensor.ConvDims, m mapping.ConvMapping, tiles []redTile) []redTile {
	cg := d.C / d.G
	for c0 := 0; c0 < cg; c0 += m.TC {
		tc := eff(c0, m.TC, cg)
		for r0 := 0; r0 < d.R; r0 += m.TR {
			tr := eff(r0, m.TR, d.R)
			for s0 := 0; s0 < d.S; s0 += m.TS {
				tiles = append(tiles, redTile{c0, tc, r0, tr, s0, eff(s0, m.TS, d.S)})
			}
		}
	}
	return tiles
}

// convTap is one in-bounds (c, r, s) reduction tap of a tile, resolved for a
// fixed (n, x): the kernel row it multiplies by and where its input row
// starts. The horizontal coordinate stays symbolic (ix = y·StrideW − PadW +
// dx) so one tap list serves the whole output row.
type convTap struct {
	kerOff int // kernel offset of the tap's K extent (group base included)
	inOff  int // input offset of (n, iy, ·, gc); add ix·C for a column
	dx     int // the tap's s coordinate
}

// fusedConv computes the exact NPQK output of Conv2D(in NHWC, kernel RSCK)
// under the given mapping, bit-identical to the step-loop reference
// (convStep), without simulating steps. It is an implicit GEMM over the
// mapping-ordered reduction axis, shaped like the packed GEMM micro-kernel:
// for each output position, eight output channels accumulate per reduction
// tile — the reference's fresh per-tile accumulator — while the tile's taps
// stream by in ascending (c, r, s) order, and the accumulator block is then
// added onto the output. Out-of-bounds taps are skipped exactly as the
// reference skips them; where taps are dropped or kept differently across
// the two column paths below, the difference is always a ±0 product — a
// bitwise no-op.
//
// Columns split into two paths per (x, tile):
//
//   - interior columns (every tap's window in bounds): the tile's kernel
//     rows are packed once into a contiguous [K-block][tap][8] panel —
//     cached across output rows and batches until the tile's valid-R window
//     changes — and tensor.PanelDot8 (AVX where available) streams the
//     gathered activations against it;
//   - boundary columns: taps are gathered per column with bounds checks and
//     zero-activation skips, and a pure-Go eight-accumulator kernel walks
//     the kernel rows in place.
func fusedConv(in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping, pc *tensor.PackCache) *tensor.Tensor {
	p, q := d.P(), d.Q()
	cg, kg := d.C/d.G, d.K/d.G
	out := tensor.NewPooled(d.N, p, q, d.K)
	inD, kerD, outD := in.Data(), kernel.Data(), out.Data()

	scratch := convScratchPool.Get().(*convScratch)
	defer convScratchPool.Put(scratch)
	tiles := convRedTiles(d, m, scratch.tiles[:0])
	scratch.tiles = tiles

	taps := scratch.taps[:0]
	ivs := scratch.ivs   // per-position gathered activations, tap order
	kofs := scratch.kofs // matching kernel row offsets
	// Per-tile kernel panels, tracked until the tile's valid-R window (or
	// group) changes — (first kerOff, tap count) determines both. Interior
	// output rows therefore repack nothing; together the panel pointers
	// reference at most one reordered copy of one group's kernel. With a
	// PackCache the panels themselves are content-keyed and shared across
	// calls: a sweep job whose weights (and tile decomposition) match an
	// earlier job's reuses its packed panels instead of rebuilding them.
	if cap(scratch.panels) < len(tiles) {
		scratch.panels = make([][]float32, len(tiles))
		scratch.panelSigs = make([][2]int, len(tiles))
	}
	if scratch.sharedPanels || pc != nil {
		// Cache-owned slices are immutable; they must never be reused as
		// packing scratch (and scratch capacity is useless to a cache-fed
		// call). Clear the whole backing slice — a shorter call must not
		// leave shared slices hiding past its own tile count.
		for i := range scratch.panels {
			scratch.panels[i] = nil
		}
	}
	scratch.sharedPanels = pc != nil
	panels := scratch.panels[:len(tiles)]
	panelSigs := scratch.panelSigs[:len(tiles)]
	for i := range panelSigs {
		panelSigs[i] = [2]int{-1, -1}
	}
	nblocks := kg / 8
	wC := d.W * d.C
	kerHash := [32]byte{}
	if pc != nil {
		kerHash = kernel.ContentHash()
	}
	for g := 0; g < d.G; g++ {
		kBase := g * kg
		var baseHash [32]byte
		if pc != nil {
			// The panel bytes are a pure function of the kernel contents,
			// the tile decomposition (geometry + reduction tiling), the
			// group's K base and the per-group K extent kg (which sets the
			// panel's K-block count — two group counts can share identical
			// kernel bytes but need different panel lengths); sig (first
			// kernel offset, tap count) pins the valid-R window within a
			// tile. Everything not carried in the per-tile key parameters
			// folds into the hash here.
			baseHash = tensor.CombineHash(kerHash,
				d.R, d.S, cg, d.K, kg, kBase, m.TC, m.TR, m.TS)
		}
		for n := 0; n < d.N; n++ {
			nIn := n * d.H * wC
			for x := 0; x < p; x++ {
				outX := (n*p+x)*q*d.K + kBase
				for ti, t := range tiles {
					// Resolve the tile's in-bounds taps for this output row,
					// in the reference's ascending (c, r, s) order.
					taps = taps[:0]
					for c := t.c0; c < t.c0+t.tc; c++ {
						gc := g*cg + c
						for r := t.r0; r < t.r0+t.tr; r++ {
							iy := x*d.StrideH - d.PadH + r
							if iy < 0 || iy >= d.H {
								continue
							}
							for s := t.s0; s < t.s0+t.ts; s++ {
								taps = append(taps, convTap{
									kerOff: ((r*d.S+s)*cg+c)*d.K + kBase,
									inOff:  nIn + iy*wC + gc,
									dx:     s,
								})
							}
						}
					}
					nt := len(taps)
					if nt == 0 {
						continue
					}
					if cap(ivs) < nt {
						ivs = make([]float32, nt)
						kofs = make([]int, nt)
					}

					// Interior column range: every tap's ix in bounds.
					dxMin, dxMax := t.s0, t.s0+t.ts-1
					yLo := 0
					if d.PadW > dxMin {
						yLo = (d.PadW - dxMin + d.StrideW - 1) / d.StrideW
					}
					yHi := 0
					if lim := d.W - 1 + d.PadW - dxMax; lim >= 0 {
						yHi = min(q, lim/d.StrideW+1)
					}
					if yLo > yHi {
						yLo = yHi
					}

					var panel []float32
					if nblocks > 0 && yLo < yHi {
						// Pack (or reuse) the tile's kernel panel. With a
						// PackCache the panel is looked up content-keyed and
						// published immutably on a miss, so identical-weight
						// jobs share one packed copy; without one it is
						// per-call scratch, overwritten in place.
						sig := [2]int{taps[0].kerOff, nt}
						if panelSigs[ti] != sig {
							need := nblocks * nt * 8
							if pc != nil {
								key := tensor.PackKey{Op: "maeri/conv-panel/v1",
									Hash: baseHash, P: [6]int{ti, sig[0], sig[1]}}
								if ct, ok := pc.Get(key); ok {
									panel = ct.Data()
								} else {
									ct := tensor.New(need)
									panel = ct.Data()
									packConvPanel(panel, kerD, taps, nblocks, nt)
									pc.Put(key, ct)
								}
							} else {
								panel = panels[ti]
								if cap(panel) < need {
									panel = make([]float32, need)
								}
								panel = panel[:need:need]
								packConvPanel(panel, kerD, taps, nblocks, nt)
							}
							panels[ti] = panel
							panelSigs[ti] = sig
						} else {
							panel = panels[ti]
						}
					}

					for y := yLo; y < yHi; y++ {
						// Interior: gather every tap unchecked (zeros kept —
						// their products are ±0, as in the reference) and
						// stream the packed panel.
						ix0 := y*d.StrideW - d.PadW
						iva := ivs[:nt:nt]
						for t2, tp := range taps {
							iva[t2] = inD[tp.inOff+(ix0+tp.dx)*d.C]
						}
						outY := outX + y*d.K
						if nblocks > 0 {
							tensor.PanelDot8(nt, nblocks, iva, panel, outD[outY:outY+nblocks*8])
						}
						for k0 := nblocks * 8; k0 < kg; k0++ { // K remainder
							var acc float32
							for t2, iv := range iva {
								acc += iv * kerD[taps[t2].kerOff+k0]
							}
							outD[outY+k0] += acc
						}
					}

					for _, yr := range [2][2]int{{0, yLo}, {yHi, q}} {
						boundaryY(yr[0], yr[1], d, taps, ivs, kofs, inD, kerD, outD, outX, kg)
					}
				}
			}
		}
	}
	// Hand the grown working slices back to the pooled scratch so the next
	// call starts at full capacity.
	scratch.taps, scratch.ivs, scratch.kofs = taps, ivs, kofs
	return out
}

// packConvPanel fills panel (nblocks·nt·8 values, [K-block][tap][8] layout)
// with the tap kernel rows of one reduction tile.
func packConvPanel(panel []float32, kerD []float32, taps []convTap, nblocks, nt int) {
	for kb := 0; kb < nblocks; kb++ {
		row := panel[kb*nt*8:]
		for t2, tp := range taps {
			copy(row[t2*8:t2*8+8], kerD[tp.kerOff+kb*8:tp.kerOff+kb*8+8])
		}
	}
}

// boundaryY handles the output columns whose window leaves the input: taps
// are gathered per column with bounds checks and zero skips, then an
// eight-accumulator register kernel walks the kernel rows in place.
func boundaryY(y0, y1 int, d tensor.ConvDims, taps []convTap, ivs []float32, kofs []int,
	inD, kerD, outD []float32, outX, kg int) {
	for y := y0; y < y1; y++ {
		// Gather this position's live taps once — bounds
		// checks and zero skips are paid per position, not
		// per K block — preserving ascending (c, r, s)
		// order.
		ix0 := y*d.StrideW - d.PadW
		nv := 0
		for _, tp := range taps {
			ix := ix0 + tp.dx
			if ix < 0 || ix >= d.W {
				continue
			}
			iv := inD[tp.inOff+ix*d.C]
			if iv == 0 {
				continue // ±0 products: bitwise no-op
			}
			ivs[nv] = iv
			kofs[nv] = tp.kerOff
			nv++
		}
		if nv == 0 {
			continue
		}
		liveIvs := ivs[:nv:nv]
		liveKofs := kofs[:nv:nv]
		outY := outX + y*d.K
		k0 := 0
		for ; k0+8 <= kg; k0 += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			t := 0
			for ; t+1 < nv; t += 2 { // taps unrolled ×2; adds stay in tap order
				iv0, iv1 := liveIvs[t], liveIvs[t+1]
				ko0 := liveKofs[t] + k0
				ko1 := liveKofs[t+1] + k0
				kr0 := kerD[ko0 : ko0+8 : ko0+8]
				kr1 := kerD[ko1 : ko1+8 : ko1+8]
				a0 += iv0 * kr0[0]
				a1 += iv0 * kr0[1]
				a2 += iv0 * kr0[2]
				a3 += iv0 * kr0[3]
				a4 += iv0 * kr0[4]
				a5 += iv0 * kr0[5]
				a6 += iv0 * kr0[6]
				a7 += iv0 * kr0[7]
				a0 += iv1 * kr1[0]
				a1 += iv1 * kr1[1]
				a2 += iv1 * kr1[2]
				a3 += iv1 * kr1[3]
				a4 += iv1 * kr1[4]
				a5 += iv1 * kr1[5]
				a6 += iv1 * kr1[6]
				a7 += iv1 * kr1[7]
			}
			if t < nv {
				iv := liveIvs[t]
				ko := liveKofs[t] + k0
				kr := kerD[ko : ko+8 : ko+8]
				a0 += iv * kr[0]
				a1 += iv * kr[1]
				a2 += iv * kr[2]
				a3 += iv * kr[3]
				a4 += iv * kr[4]
				a5 += iv * kr[5]
				a6 += iv * kr[6]
				a7 += iv * kr[7]
			}
			// The reference's `outD[oi] += acc` per step.
			dst := outD[outY+k0 : outY+k0+8 : outY+k0+8]
			dst[0] += a0
			dst[1] += a1
			dst[2] += a2
			dst[3] += a3
			dst[4] += a4
			dst[5] += a5
			dst[6] += a6
			dst[7] += a7
		}
		for ; k0 < kg; k0++ { // K remainder, scalar accumulators
			var acc float32
			for t, iv := range liveIvs {
				acc += iv * kerD[liveKofs[t]+k0]
			}
			outD[outY+k0] += acc
		}
	}
}

// fusedDense computes the exact [batches, outN] dense output (input
// [batches, inN] × weights [outN, inN]), bit-identical to the step-loop
// reference: per output element, one fresh accumulator per K tile (the
// mapping's T_K decomposition, ascending), summed in ascending k within the
// tile and added onto the output. Output neurons are processed four at a
// time so each input activation is loaded once per four dot products.
func fusedDense(in, weights *tensor.Tensor, m mapping.FCMapping) *tensor.Tensor {
	batches, inN := in.Dim(0), in.Dim(1)
	outN := weights.Dim(0)
	out := tensor.NewPooled(batches, outN)
	inD, wD, outD := in.Data(), weights.Data(), out.Data()

	for n := 0; n < batches; n++ {
		inRow := inD[n*inN : (n+1)*inN : (n+1)*inN]
		outRow := outD[n*outN : (n+1)*outN : (n+1)*outN]
		s0 := 0
		for ; s0+3 < outN; s0 += 4 {
			w0 := wD[s0*inN : (s0+1)*inN : (s0+1)*inN]
			w1 := wD[(s0+1)*inN : (s0+2)*inN : (s0+2)*inN]
			w2 := wD[(s0+2)*inN : (s0+3)*inN : (s0+3)*inN]
			w3 := wD[(s0+3)*inN : (s0+4)*inN : (s0+4)*inN]
			for k0 := 0; k0 < inN; k0 += m.TK {
				tk := eff(k0, m.TK, inN)
				var a0, a1, a2, a3 float32
				for k := k0; k < k0+tk; k++ {
					iv := inRow[k]
					a0 += iv * w0[k]
					a1 += iv * w1[k]
					a2 += iv * w2[k]
					a3 += iv * w3[k]
				}
				outRow[s0] += a0
				outRow[s0+1] += a1
				outRow[s0+2] += a2
				outRow[s0+3] += a3
			}
		}
		for ; s0 < outN; s0++ {
			wRow := wD[s0*inN : (s0+1)*inN : (s0+1)*inN]
			for k0 := 0; k0 < inN; k0 += m.TK {
				tk := eff(k0, m.TK, inN)
				var acc float32
				for k := k0; k < k0+tk; k++ {
					acc += inRow[k] * wRow[k]
				}
				outRow[s0] += acc
			}
		}
	}
	return out
}
