package maeri

import (
	"slices"
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
// lexicographic order. That per-element chain is what the kernels keep; the
// loops *around* it are theirs to arrange. The oracle walks tiles outermost
// and revisits every output element once per tile; the kernels here walk
// output elements outermost and run each element's whole chain — every
// tile, in order — while the element sits in a register, so an output is
// stored once instead of once per tile, and a block of elements that share
// operands (4 positions × 8 channels in the conv, 4 neurons in the dense)
// shares each load.
//
// Operands are finite by contract, and one reference behaviour is replaced
// by a bitwise-equal one on the strength of it: the oracle skips
// out-of-bounds (padding) taps, the conv kernel multiplies a zero-filled
// activation instead. The product 0·w is ±0 for any finite w — whatever its
// sign, negative weights included — and adding ±0 never changes an
// accumulator: a nonzero sum is unchanged, and an accumulator that starts
// at +0 can never be −0 under round-to-nearest (+0 + −0 = +0, x + −x = +0),
// so a zero one stays +0. The same argument covers a tile that lies wholly
// in the padding: its sum is +0 and `out += +0` leaves out, itself never
// −0, as it was. The equiv_test.go suite pins output bytes, not just Stats,
// over padded layers with negative weights and ±0 activations.
//
// The same argument lets two tilings drop their per-tile accumulators.
// Where every tile is one tap (the conv's basic mapping) or one element (a
// dense layer at T_K = 1), the chain out += (+0 + p) becomes out += p: the
// two differ only for p = −0, which +0 + p turns into +0, and out, never −0
// itself, absorbs either unchanged. One tile spanning the whole axis is
// out = +0 + acc over that same chain acc, itself never −0, which is acc.
// So both run as one tile spanning the axis: the conv kernel flushes once
// per block instead of once per tap, and the dense loop once per neuron.

// convTap is one (c, r, s) tap of the reduction axis, resolved against the
// layer geometry once per call; n, x and the group shift it by a base.
type convTap struct {
	kerOff int // kernel offset of (r, s, c, k=0), group-local k
	inOff  int // input offset of (iy=r, ix=s, channel c) from the window origin
	r      int
	// Output columns [yLo, yHi) are the ones whose ix = y·StrideW − PadW + s
	// lies inside the input row; the others read padding.
	yLo, yHi int
}

// convScratch is the reusable working state of one fusedConv call, recycled
// through a pool so the steady-state fused path allocates nothing: the tap
// and tile tables and the packed kernel panels, plus the call's geometry and
// operands, which every chunk of output rows reads.
type convScratch struct {
	taps  []convTap
	nts   []int32
	panel []float32 // [group][K-block][tap][8]

	d         tensor.ConvDims
	inD, outD []float32
	rowsFn    func(lo, hi int) // sc.rows, bound once per scratch: a split call allocates no closure
}

var convScratchPool = sync.Pool{New: func() any { return &convScratch{} }}

// reductionAxis lays out the reduction axis of one output element in the
// step loop's visit order — tiles c0 outermost, then r0, then s0; within a
// tile c, then r, then s — as the tap table and the per-tile tap counts the
// micro-kernel flushes its fresh accumulators by. An axis of single-tap
// tiles is laid out as one tile over every tap, bit-identical by the file
// header's argument.
func (sc *convScratch) reductionAxis(d tensor.ConvDims, m mapping.ConvMapping) ([]convTap, []int32) {
	cg, q := d.C/d.G, d.Q()
	taps, nts := sc.taps[:0], sc.nts[:0]
	for c0 := 0; c0 < cg; c0 += m.TC {
		tc := eff(c0, m.TC, cg)
		for r0 := 0; r0 < d.R; r0 += m.TR {
			tr := eff(r0, m.TR, d.R)
			for s0 := 0; s0 < d.S; s0 += m.TS {
				ts := eff(s0, m.TS, d.S)
				nts = append(nts, int32(tc*tr*ts))
				for c := c0; c < c0+tc; c++ {
					for r := r0; r < r0+tr; r++ {
						for s := s0; s < s0+ts; s++ {
							tp := convTap{
								kerOff: ((r*d.S+s)*cg + c) * d.K,
								inOff:  (r*d.W+s)*d.C + c,
								r:      r,
							}
							if d.PadW > s {
								tp.yLo = (d.PadW - s + d.StrideW - 1) / d.StrideW
							}
							if lim := d.W - 1 + d.PadW - s; lim >= 0 {
								tp.yHi = min(q, lim/d.StrideW+1)
							}
							tp.yLo = min(tp.yLo, tp.yHi)
							taps = append(taps, tp)
						}
					}
				}
			}
		}
	}
	if len(nts) == len(taps) && len(taps) > 0 {
		nts = append(nts[:0], int32(len(taps)))
	}
	sc.taps, sc.nts = taps, nts
	return taps, nts
}

// fusedConv computes the exact NPQK output of Conv2D(in NHWC, kernel RSCK)
// under the given mapping, bit-identical to the step-loop reference
// (oracle's convStep), without simulating steps. It is an implicit GEMM
// over the mapping-ordered reduction axis around one register-blocked
// micro-kernel, tensor.PanelTiles4x8:
//
//   - once per group, the group's kernel is packed into one contiguous
//     [K-block of 8][tap][8] panel, taps in reduction order, a partial last
//     K-block zero-padded;
//   - once per (group, batch, output row), the row's activations are
//     gathered into [y-block of 4][tap][4], padding taps and the columns
//     past a partial last y-block zero-filled;
//   - each (K-block, y-block) pair is one kernel call: 4 positions × 8
//     channels stay in registers while every reduction tile streams by —
//     fresh accumulators per tile, taps ascending, one add onto the block
//     per tile — and are stored once. Blocks that are partial in either
//     direction land in a stack tile and copy their valid part out.
//
// A layer big enough to repay it has its (group, batch, output row) rows
// split across idle cores by tensor.ParallelFor: every row has one writer
// and its own gather buffer, and reads the shared panels.
//
// Panels and gather buffers are per-call scratch from pools: a panel is a
// strided copy worth 1/(P·Q) of the convolution it feeds, cheaper to redo
// than to key, hash and keep.
func fusedConv(in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) *tensor.Tensor {
	p, q := d.P(), d.Q()
	kg := d.K / d.G
	out := tensor.NewPooled(d.N, p, q, d.K)

	sc := convScratchPool.Get().(*convScratch)
	defer convScratchPool.Put(sc)
	taps, _ := sc.reductionAxis(d, m)
	group := (kg + 7) / 8 * len(taps) * 8 // one group's panel
	sc.panel = slices.Grow(sc.panel[:0], d.G*group)[:d.G*group]
	for g := 0; g < d.G; g++ {
		packConvPanel(sc.panel[g*group:(g+1)*group], kernel.Data(), taps, g*kg, kg)
	}
	sc.d, sc.inD, sc.outD = d, in.Data(), out.Data()
	defer func() { sc.inD, sc.outD = nil, nil }() // the pool must not pin operands

	rows := d.G * d.N * p
	if grain := tensor.Grain(rows, q*kg*len(taps), 0); grain < rows {
		if sc.rowsFn == nil {
			sc.rowsFn = sc.rows
		}
		tensor.ParallelFor(rows, grain, sc.rowsFn)
	} else {
		sc.rows(0, rows)
	}
	return out
}

// rows computes output rows [lo, hi) of the call, indexed (group, batch,
// output row), with its own gather buffer.
func (sc *convScratch) rows(lo, hi int) {
	d := &sc.d
	p, q := d.P(), d.Q()
	cg, kg := d.C/d.G, d.K/d.G
	taps, nts := sc.taps, sc.nts
	nt := len(taps)
	nkb, nyb := (kg+7)/8, (q+3)/4
	acts := tensor.GetScratch(nyb * nt * 4)
	defer tensor.PutScratch(acts)
	var edge [4 * 8]float32

	for r := lo; r < hi; r++ {
		g, n, x := r/(d.N*p), r/p%d.N, r%p
		panel := sc.panel[g*nkb*nt*8 : (g+1)*nkb*nt*8]
		iy0 := x*d.StrideH - d.PadH
		gatherConvRow(acts, sc.inD, taps, *d, ((n*d.H+iy0)*d.W-d.PadW)*d.C+g*cg, iy0)
		outX := (n*p+x)*q*d.K + g*kg
		for kb := 0; kb < nkb; kb++ {
			kw := min(8, kg-kb*8)
			pnl := panel[kb*nt*8 : (kb+1)*nt*8]
			for yb := 0; yb < nyb; yb++ {
				yw := min(4, q-yb*4)
				a := acts[yb*nt*4 : (yb+1)*nt*4]
				dst := sc.outD[outX+yb*4*d.K+kb*8:]
				if kw == 8 && yw == 4 {
					tensor.PanelTiles4x8(nts, a, pnl, dst, d.K)
					continue
				}
				tensor.PanelTiles4x8(nts, a, pnl, edge[:], 8)
				for j := 0; j < yw; j++ {
					copy(dst[j*d.K:j*d.K+kw], edge[j*8:])
				}
			}
		}
	}
}

// packConvPanel packs one group's kernel (k in [kBase, kBase+kg)) into the
// [K-block][tap][8] panel, zero-padding the channels past kg in a partial
// last block.
func packConvPanel(panel, kerD []float32, taps []convTap, kBase, kg int) {
	for kb := 0; kb*8 < kg; kb++ {
		kw := min(8, kg-kb*8)
		rows := panel[kb*len(taps)*8 : (kb+1)*len(taps)*8]
		for t, tp := range taps {
			src := tp.kerOff + kBase + kb*8
			row := (*[8]float32)(rows[t*8:])
			if kw == 8 {
				*row = [8]float32(kerD[src:])
				continue
			}
			*row = [8]float32{}
			copy(row[:], kerD[src:src+kw])
		}
	}
}

// gatherConvRow fills acts ([y-block][tap][4]) with one output row's
// activations: column y of tap t is the input under the tap at output
// position y, or zero where that is padding (a row outside the input, a
// column outside [yLo, yHi)) or past the end of the output row. base is the
// input offset of the row's window origin (iy0, ix = −PadW) in the group's
// first channel; it may be negative on its own, never once an in-bounds tap
// is added.
func gatherConvRow(acts, inD []float32, taps []convTap, d tensor.ConvDims, base, iy0 int) {
	stride := len(taps) * 4 // one y-block
	ny := len(acts) / len(taps)
	step := d.StrideW * d.C
	for t, tp := range taps {
		col := acts[t*4:]
		lo, hi := tp.yLo, tp.yHi
		if iy := iy0 + tp.r; iy < 0 || iy >= d.H {
			lo, hi = 0, 0
		}
		for y := 0; y < lo; y++ {
			col[(y>>2)*stride+y&3] = 0
		}
		src := base + tp.inOff + lo*step
		for y := lo; y < hi; y++ {
			col[(y>>2)*stride+y&3] = inD[src]
			src += step
		}
		for y := hi; y < ny; y++ {
			col[(y>>2)*stride+y&3] = 0
		}
	}
}

// fusedDense computes the exact [batches, outN] dense output (input
// [batches, inN] × weights [outN, inN]), bit-identical to the step-loop
// reference: per output element, one fresh accumulator per K tile (the
// mapping's T_K decomposition, ascending), summed in ascending k within the
// tile and added onto the output. Output neurons are processed four at a
// time so each input activation is loaded once per four dot products, and
// the four outputs stay in registers across every K tile: one store per
// neuron, not one per tile. A layer big enough to repay it has its neuron
// quads split across idle cores by tensor.ParallelFor.
//
// T_K = 1 (the basic mapping) runs as one tile spanning the row, which the
// file header shows is bit-identical and costs one add per product, not two.
func fusedDense(in, weights *tensor.Tensor, m mapping.FCMapping) *tensor.Tensor {
	batches, inN := in.Dim(0), in.Dim(1)
	outN := weights.Dim(0)
	out := tensor.NewPooled(batches, outN)
	inD, wD, outD := in.Data(), weights.Data(), out.Data()
	quads := (outN + 3) / 4
	tk := m.TK
	if tk == 1 {
		tk = inN
	}
	if grain := tensor.Grain(quads, 4*inN*batches, 0); grain < quads {
		tensor.ParallelFor(quads, grain, func(lo, hi int) { denseQuads(inD, wD, outD, batches, inN, outN, tk, lo, hi) })
	} else {
		denseQuads(inD, wD, outD, batches, inN, outN, tk, 0, quads)
	}
	return out
}

// denseQuads computes output neurons [4·lo, min(4·hi, outN)) of every batch
// row; a partial last quad runs one neuron at a time.
func denseQuads(inD, wD, outD []float32, batches, inN, outN, tk, lo, hi int) {
	end := min(4*hi, outN)
	for n := 0; n < batches; n++ {
		inRow := inD[n*inN : (n+1)*inN : (n+1)*inN]
		outRow := outD[n*outN : (n+1)*outN : (n+1)*outN]
		s0 := 4 * lo
		for ; s0+3 < end; s0 += 4 {
			w0 := wD[s0*inN : (s0+1)*inN : (s0+1)*inN]
			w1 := wD[(s0+1)*inN : (s0+2)*inN : (s0+2)*inN]
			w2 := wD[(s0+2)*inN : (s0+3)*inN : (s0+3)*inN]
			w3 := wD[(s0+3)*inN : (s0+4)*inN : (s0+4)*inN]
			var o0, o1, o2, o3 float32
			for k0 := 0; k0 < inN; k0 += tk {
				tkEff := eff(k0, tk, inN)
				var a0, a1, a2, a3 float32
				for k := k0; k < k0+tkEff; k++ {
					iv := inRow[k]
					a0 += iv * w0[k]
					a1 += iv * w1[k]
					a2 += iv * w2[k]
					a3 += iv * w3[k]
				}
				o0 += a0
				o1 += a1
				o2 += a2
				o3 += a3
			}
			outRow[s0], outRow[s0+1], outRow[s0+2], outRow[s0+3] = o0, o1, o2, o3
		}
		for ; s0 < end; s0++ {
			wRow := wD[s0*inN : (s0+1)*inN : (s0+1)*inN]
			var o float32
			for k0 := 0; k0 < inN; k0 += tk {
				tkEff := eff(k0, tk, inN)
				var acc float32
				for k := k0; k < k0+tkEff; k++ {
					acc += inRow[k] * wRow[k]
				}
				o += acc
			}
			outRow[s0] = o
		}
	}
}
