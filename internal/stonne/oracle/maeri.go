package oracle

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// MAERI is simulated cycle-stepped at tile granularity: a dataflow mapping
// (Tables IV/V) partitions the layer's iteration space into steps; within a
// step the configured virtual neurons each perform one spatial reduction,
// and the step's cycle cost is the maximum of its distribution-network
// occupancy (unique values ÷ dn_bw, multicast free), its reduction-network
// drain (virtual neurons ÷ rn_bw) and one compute cycle — the networks
// pipeline across steps exactly as MAERI's fabrics do. Weight reloads on
// weight-tile changes are not overlapped.

// uniqueSpan returns the number of distinct input coordinates touched along
// one spatial axis by an output tile of `outTile` positions with the given
// stride and a filter tile of `filterTile` taps: overlapping windows share
// rows/columns, disjoint windows do not.
func uniqueSpan(outTile, filterTile, stride int) int {
	if stride >= filterTile {
		return outTile * filterTile
	}
	return (outTile-1)*stride + filterTile
}

// maeriConv runs the conv step loop: NHWC input, RSCK kernel [R, S, C/G, K],
// NPQK output. Nil operands run the counters alone.
func maeriConv(cfg config.HWConfig, in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	if d.DilationH != 1 || d.DilationW != 1 {
		return nil, stats.Stats{}, fmt.Errorf("oracle: MAERI does not support dilation")
	}
	if err := m.Validate(d, cfg.MSSize); err != nil {
		return nil, stats.Stats{}, err
	}
	p, q := d.P(), d.Q()
	cg, kg := d.C/d.G, d.K/d.G
	var out *tensor.Tensor
	if in != nil {
		if !tensor.ShapeEq(in.Shape(), []int{d.N, d.H, d.W, d.C}) {
			return nil, stats.Stats{}, fmt.Errorf("oracle: input shape %v is not NHWC [%d %d %d %d]", in.Shape(), d.N, d.H, d.W, d.C)
		}
		if !tensor.ShapeEq(kernel.Shape(), []int{d.R, d.S, cg, d.K}) {
			return nil, stats.Stats{}, fmt.Errorf("oracle: kernel shape %v is not RSCK [%d %d %d %d]", kernel.Shape(), d.R, d.S, cg, d.K)
		}
		out = tensor.New(d.N, p, q, d.K)
	}
	dn, rn, ab, err := fabrics(cfg)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	var st stats.Stats
	st.Multipliers = cfg.MSSize
	var cycles int64

	// Temporal loop nest. The reduction-space tiles (c, r, s) and the
	// replication tiles (g, n, k) change the stationary weights; the output
	// tiles (x, y) are swept innermost so weights are reused across the
	// whole output plane — MAERI's weight-stationary sweep.
	for g0 := 0; g0 < d.G; g0 += m.TG {
		tg := min(m.TG, d.G-g0)
		for n0 := 0; n0 < d.N; n0 += m.TN {
			tn := min(m.TN, d.N-n0)
			for k0 := 0; k0 < kg; k0 += m.TK {
				tk := min(m.TK, kg-k0)
				firstRed := true
				for c0 := 0; c0 < cg; c0 += m.TC {
					tc := min(m.TC, cg-c0)
					for r0 := 0; r0 < d.R; r0 += m.TR {
						tr := min(m.TR, d.R-r0)
						for s0 := 0; s0 < d.S; s0 += m.TS {
							ts := min(m.TS, d.S-s0)
							vn := tr * ts * tc

							// Weight reload: one weight per multiplier of
							// every distinct (k, g) VN; VNs replicated over
							// x/y/n receive the same weights by multicast.
							weights := int64(vn * tk * tg)
							cycles += dn.Deliver(weights)
							st.WeightLoads += weights

							for x0 := 0; x0 < p; x0 += m.TX {
								tx := min(m.TX, p-x0)
								for y0 := 0; y0 < q; y0 += m.TY {
									ty := min(m.TY, q-y0)
									nv := int64(tk * tg * tn * tx * ty)

									// Distribution: unique input elements in
									// the step (channel × overlapping
									// spatial windows × batch × group);
									// multicast across the K tile is free.
									rows := uniqueSpan(tx, tr, d.StrideH)
									cols := uniqueSpan(ty, ts, d.StrideW)
									inputs := int64(tn * tg * tc * rows * cols)
									recirc := ab.Accumulate(nv, firstRed)
									inCycles := dn.Deliver(inputs + recirc)
									st.InputLoads += inputs

									// Reduction: each VN spatially combines
									// its vn partial products. Accumulating
									// steps read the previous partial back
									// through the collection bus, doubling
									// its traffic (a read-modify-write per
									// VN when the buffer is present).
									st.SpatialPsums += rn.ReduceMany(vn, nv)
									collect := nv
									if !firstRed && ab.Present {
										collect *= 2
									}
									cycles += max(inCycles, rn.Drain(collect), 1)
									st.Steps++
									st.MACs += nv * int64(vn)
									st.AccumWrites += nv

									if in != nil {
										convStep(out, in, kernel, d, g0, tg, n0, tn, k0, tk, c0, tc, r0, tr, s0, ts, x0, tx, y0, ty)
									}
								}
							}
							firstRed = false
						}
					}
				}
			}
		}
	}
	// Pipeline drain: the last step's values traverse the adder tree and
	// the collection bus.
	cycles += int64(rn.Depth(m.VNSize())) + 1
	st.Cycles = cycles
	st.DNElements = dn.Elements
	st.Outputs = int64(d.N) * int64(p) * int64(q) * int64(d.K)
	return out, st, nil
}

// convStep performs the exact arithmetic of one tile step, accumulating
// partial sums into the NPQK output. k and c indices are group-local.
func convStep(out, in, kernel *tensor.Tensor, d tensor.ConvDims,
	g0, tg, n0, tn, k0, tk, c0, tc, r0, tr, s0, ts, x0, tx, y0, ty int) {
	cg, kg := d.C/d.G, d.K/d.G
	p, q := d.P(), d.Q()
	inD, kerD, outD := in.Data(), kernel.Data(), out.Data()
	for g := g0; g < g0+tg; g++ {
		for n := n0; n < n0+tn; n++ {
			for k := k0; k < k0+tk; k++ {
				gk := g*kg + k
				for x := x0; x < x0+tx; x++ {
					for y := y0; y < y0+ty; y++ {
						var acc float32
						for c := c0; c < c0+tc; c++ {
							gc := g*cg + c
							for r := r0; r < r0+tr; r++ {
								iy := x*d.StrideH - d.PadH + r
								if iy < 0 || iy >= d.H {
									continue
								}
								inRow := ((n*d.H+iy)*d.W)*d.C + gc
								kerRow := (r*d.S*cg+c)*d.K + gk
								for s := s0; s < s0+ts; s++ {
									ix := y*d.StrideW - d.PadW + s
									if ix < 0 || ix >= d.W {
										continue
									}
									acc += inD[inRow+ix*d.C] * kerD[kerRow+s*cg*d.K]
								}
							}
						}
						outD[((n*p+x)*q+y)*d.K+gk] += acc
					}
				}
			}
		}
	}
}

// maeriDense runs the dense step loop, one simulated step per (T_S, T_N,
// T_K) tile: input [batches, inN], weights [outN, inN], output [batches,
// outN]. Unlike convolution there is no weight reuse, so every step streams
// its T_S × T_K weight tile through the distribution network alongside the
// T_K input activations. Nil operands run the counters alone.
func maeriDense(cfg config.HWConfig, in, weights *tensor.Tensor, batches, inN, outN int, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	if err := m.Validate(batches, inN, outN, cfg.MSSize); err != nil {
		return nil, stats.Stats{}, err
	}
	dn, rn, ab, err := fabrics(cfg)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	var out *tensor.Tensor
	if in != nil {
		out = tensor.New(batches, outN)
	}
	var st stats.Stats
	st.Multipliers = cfg.MSSize
	var cycles int64

	for s0 := 0; s0 < outN; s0 += m.TS {
		ts := min(m.TS, outN-s0)
		for n0 := 0; n0 < batches; n0 += m.TN {
			tn := min(m.TN, batches-n0)
			for k0 := 0; k0 < inN; k0 += m.TK {
				tk := min(m.TK, inN-k0)
				firstRed := k0 == 0
				nv := int64(ts * tn)

				// Weights are single-use: T_S × T_K fresh values per step.
				// Inputs multicast across the T_S output-neuron VNs.
				wElems := int64(ts * tk)
				iElems := int64(tn * tk)
				recirc := ab.Accumulate(nv, firstRed)
				inCycles := dn.Deliver(wElems + iElems + recirc)
				st.WeightLoads += wElems
				st.InputLoads += iElems

				st.SpatialPsums += rn.ReduceMany(tk, nv)
				collect := nv
				if !firstRed && ab.Present {
					collect *= 2 // accumulation read-modify-write
				}
				cycles += max(inCycles, rn.Drain(collect), 1)
				st.Steps++
				st.MACs += nv * int64(tk)
				st.AccumWrites += nv

				if in != nil {
					inD, wD, outD := in.Data(), weights.Data(), out.Data()
					for n := n0; n < n0+tn; n++ {
						for s := s0; s < s0+ts; s++ {
							var acc float32
							inRow, wRow := inD[n*inN:], wD[s*inN:]
							for k := k0; k < k0+tk; k++ {
								acc += inRow[k] * wRow[k]
							}
							outD[n*outN+s] += acc
						}
					}
				}
			}
		}
	}
	cycles += int64(rn.Depth(m.VNSize())) + 1
	st.Cycles = cycles
	st.DNElements = dn.Elements
	st.Outputs = int64(batches) * int64(outN)
	return out, st, nil
}
