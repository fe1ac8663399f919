// Package maeri simulates the MAERI architecture (Kwon et al., ASPLOS 2018)
// as implemented in STONNE: a linear array of multiplier switches fed by a
// chubby-tree distribution network and reduced by an augmented reduction
// tree (ART) or fold-enabled network (FEN), with an optional accumulation
// buffer.
//
// The simulation is cycle-stepped at tile granularity: a dataflow mapping
// (Tables IV/V) partitions the layer's iteration space into steps; within a
// step the configured virtual neurons each perform one spatial reduction,
// and the step's cycle cost is the maximum of its distribution-network
// occupancy (unique values ÷ dn_bw, multicast free), its reduction-network
// drain (virtual neurons ÷ rn_bw) and one compute cycle — the networks
// pipeline across steps exactly as MAERI's fabrics do. Weight reloads on
// weight-tile changes are not overlapped. Outputs are computed exactly and
// are verified against the CPU operator inventory in tests.
package maeri

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/fabric"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// Engine simulates one MAERI instance. Engines are cheap: Bifrost creates a
// new instance per offloaded layer ("Create a new instance of STONNE", §V).
// An Engine reuses its fabric models across calls and is therefore not safe
// for concurrent use; create one engine per goroutine.
type Engine struct {
	cfg config.HWConfig

	// DryRun skips output arithmetic while keeping every counter exact;
	// cycle counts do not depend on operand values for the dense MAERI
	// pipeline. Used by mapping search loops.
	//
	// Counters and arithmetic are decoupled (PR 4): by default neither dry
	// nor full-accuracy runs enter the step loop. Stats always come from
	// the analytical fast path — interior tile steps with identical
	// effective tile sizes have identical cost, so the loop nest collapses
	// to at most two size classes per axis, O(boundary classes) instead of
	// O(steps) — and a full-accuracy run computes its output tensor through
	// the fused arithmetic kernels (fused.go), which reproduce the step
	// loop's per-reduction-tile accumulation order exactly. Both halves are
	// bit-identical to the reference (proven by the equivalence tests).
	DryRun bool

	// Reference forces the step-loop reference implementation — counters
	// and, for full-accuracy runs, arithmetic. It exists to validate the
	// analytical engine and the fused arithmetic and to reproduce their
	// derivation; production paths leave it false.
	Reference bool

	// Pack, when set, shares packed kernel panels across engines through a
	// content-keyed cache: fused convolutions whose weights and tile
	// decomposition match a previous run's reuse its panels instead of
	// repacking them. Outputs are bitwise identical with or without it, so
	// it never participates in result cache keys.
	Pack *tensor.PackCache

	// Fabrics are created lazily on the first full-accuracy call and reset
	// (counters zeroed) on each subsequent call, avoiding the per-call
	// allocation churn tuner loops used to pay. The analytical dry-run path
	// needs no fabric objects at all.
	dn *fabric.DistributionNetwork
	rn *fabric.ReductionNetwork
	ab *fabric.AccumulationBuffer
}

// eff clamps a tile that would run past its dimension: the effective size
// of the tile starting at base. Shared by the conv and dense loop nests and
// by the analytical engine's class decomposition.
func eff(base, tile, dim int) int {
	if base+tile > dim {
		return dim - base
	}
	return tile
}

// NewEngine validates the hardware configuration and returns an engine.
func NewEngine(cfg config.HWConfig) (*Engine, error) {
	if cfg.Controller != config.MAERIDenseWorkload {
		return nil, fmt.Errorf("maeri: controller_type must be MAERI_DENSE_WORKLOAD, got %s", cfg.Controller)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// fabrics returns the engine's fabric models, creating them on first use
// and resetting their counters on every call thereafter.
func (e *Engine) fabrics() (*fabric.DistributionNetwork, *fabric.ReductionNetwork, *fabric.AccumulationBuffer, error) {
	if e.dn == nil {
		dn, err := fabric.NewDistributionNetwork(e.cfg.DNBandwidth)
		if err != nil {
			return nil, nil, nil, err
		}
		kind := fabric.ART
		if e.cfg.ReduceNetwork == config.FENetwork {
			kind = fabric.FEN
		}
		rn, err := fabric.NewReductionNetwork(kind, e.cfg.RNBandwidth)
		if err != nil {
			return nil, nil, nil, err
		}
		e.dn, e.rn, e.ab = dn, rn, fabric.NewAccumulationBuffer(e.cfg.AccumBuffer)
		return e.dn, e.rn, e.ab, nil
	}
	e.dn.Reset()
	e.rn.Reset()
	e.ab.Reset()
	return e.dn, e.rn, e.ab, nil
}

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

// Conv2D executes a convolution on the simulated MAERI. The input must be
// NHWC and the kernel RSCK (MAERI's native layouts, §V-B-1); the output is
// produced in NPQK order. Kernel shape is [R, S, C/G, K].
func (e *Engine) Conv2D(in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	if err := d.Resolve(); err != nil {
		return nil, stats.Stats{}, err
	}
	if d.DilationH != 1 || d.DilationW != 1 {
		return nil, stats.Stats{}, fmt.Errorf("maeri: dilation is not supported")
	}
	if err := m.Validate(d, e.cfg.MSSize); err != nil {
		return nil, stats.Stats{}, err
	}
	if !e.DryRun {
		if !tensor.ShapeEq(in.Shape(), []int{d.N, d.H, d.W, d.C}) {
			return nil, stats.Stats{}, fmt.Errorf("maeri: input shape %v is not NHWC [%d %d %d %d]", in.Shape(), d.N, d.H, d.W, d.C)
		}
		if !tensor.ShapeEq(kernel.Shape(), []int{d.R, d.S, d.C / d.G, d.K}) {
			return nil, stats.Stats{}, fmt.Errorf("maeri: kernel shape %v is not RSCK [%d %d %d %d]", kernel.Shape(), d.R, d.S, d.C/d.G, d.K)
		}
	}
	if !e.Reference {
		// Fused fast path: analytic counters, and for full-accuracy runs
		// the fused arithmetic kernel — the step loop is never entered.
		st := e.analyticConv(d, m)
		if e.DryRun {
			return nil, st, nil
		}
		return fusedConv(in, kernel, d, m, e.Pack), st, nil
	}
	dn, rn, ab, err := e.fabrics()
	if err != nil {
		return nil, stats.Stats{}, err
	}

	p, q := d.P(), d.Q()
	cg, kg := d.C/d.G, d.K/d.G
	var out *tensor.Tensor
	if !e.DryRun {
		out = tensor.New(d.N, p, q, d.K)
	}
	var st stats.Stats
	st.Multipliers = e.cfg.MSSize

	var cycles int64

	// Temporal loop nest. The reduction-space tiles (c, r, s) and the
	// replication tiles (g, n, k) change the stationary weights; the output
	// tiles (x, y) are swept innermost so weights are reused across the
	// whole output plane — MAERI's weight-stationary sweep.
	for g0 := 0; g0 < d.G; g0 += m.TG {
		tg := eff(g0, m.TG, d.G)
		for n0 := 0; n0 < d.N; n0 += m.TN {
			tn := eff(n0, m.TN, d.N)
			for k0 := 0; k0 < kg; k0 += m.TK {
				tk := eff(k0, m.TK, kg)
				redIdx := 0
				for c0 := 0; c0 < cg; c0 += m.TC {
					tc := eff(c0, m.TC, cg)
					for r0 := 0; r0 < d.R; r0 += m.TR {
						tr := eff(r0, m.TR, d.R)
						for s0 := 0; s0 < d.S; s0 += m.TS {
							ts := eff(s0, m.TS, d.S)
							redIdx++
							firstRed := redIdx == 1
							vn := tr * ts * tc

							// Weight reload: one weight per multiplier of
							// every distinct (k, g) VN; VNs replicated over
							// x/y/n receive the same weights by multicast.
							weights := int64(vn * tk * tg)
							cycles += dn.Deliver(weights)
							st.WeightLoads += weights

							for x0 := 0; x0 < p; x0 += m.TX {
								tx := eff(x0, m.TX, p)
								for y0 := 0; y0 < q; y0 += m.TY {
									ty := eff(y0, m.TY, q)
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
									drainCycles := rn.Drain(collect)

									step := max(inCycles, drainCycles, 1)
									cycles += step
									st.Steps++
									st.MACs += nv * int64(vn)
									st.AccumWrites += nv

									if !e.DryRun {
										e.convStep(out, in, kernel, d, g0, tg, n0, tn, k0, tk, c0, tc, r0, tr, s0, ts, x0, tx, y0, ty)
									}
								}
							}
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
// partial sums into the NPQK output. k and c indices are group-local. It
// indexes the flat storage directly: this loop runs once per MAC of the
// layer and dominates simulation time for large models.
func (e *Engine) convStep(out, in, kernel *tensor.Tensor, d tensor.ConvDims,
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
						oi := ((n*p+x)*q+y)*d.K + gk
						outD[oi] += acc
					}
				}
			}
		}
	}
}

// Dense executes a fully connected layer on the simulated MAERI: the input
// is [M, K] (M batches of K input neurons), weights are [S, K] (S output
// neurons) and the output is [M, S]. Unlike convolution there is no weight
// reuse, so every step streams its T_S × T_K weight tile through the
// distribution network alongside the T_K input activations.
func (e *Engine) Dense(in, weights *tensor.Tensor, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	if in == nil || weights == nil {
		return nil, stats.Stats{}, fmt.Errorf("maeri: dense requires input and weight tensors (DenseStats takes the shapes alone)")
	}
	if in.Rank() != 2 || weights.Rank() != 2 {
		return nil, stats.Stats{}, fmt.Errorf("maeri: dense requires 2-D input and weights, got %v and %v", in.Shape(), weights.Shape())
	}
	batches, inN := in.Dim(0), in.Dim(1)
	outN := weights.Dim(0)
	if weights.Dim(1) != inN {
		return nil, stats.Stats{}, fmt.Errorf("maeri: dense reduction mismatch: input %v vs weights %v", in.Shape(), weights.Shape())
	}
	if e.DryRun {
		st, err := e.DenseStats(batches, inN, outN, m)
		return nil, st, err
	}
	if err := m.Validate(batches, inN, outN, e.cfg.MSSize); err != nil {
		return nil, stats.Stats{}, err
	}
	if !e.Reference {
		return fusedDense(in, weights, m), e.analyticDense(batches, inN, outN, m), nil
	}
	return e.denseSteps(in, weights, batches, inN, outN, m)
}

// DenseStats returns the counters Dense reports for an input of [batches,
// inN] against weights of [outN, inN], from the shapes alone — MAERI's
// dense counters never depend on operand values, so the cycles-target
// tuners and dry-run jobs need no tensors at all (as Conv2D(nil, nil, d, m)
// is for a dry-run convolution). Reference selects the step loop, without
// arithmetic, over the closed form; the two are bit-identical.
func (e *Engine) DenseStats(batches, inN, outN int, m mapping.FCMapping) (stats.Stats, error) {
	if err := m.Validate(batches, inN, outN, e.cfg.MSSize); err != nil {
		return stats.Stats{}, err
	}
	if !e.Reference {
		return e.analyticDense(batches, inN, outN, m), nil
	}
	_, st, err := e.denseSteps(nil, nil, batches, inN, outN, m)
	return st, err
}

// denseSteps is the reference step loop of Dense: one simulated step per
// (T_S, T_N, T_K) tile. Nil operands run the counters alone.
func (e *Engine) denseSteps(in, weights *tensor.Tensor, batches, inN, outN int, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	dn, rn, ab, err := e.fabrics()
	if err != nil {
		return nil, stats.Stats{}, err
	}

	var out *tensor.Tensor
	if in != nil {
		out = tensor.New(batches, outN)
	}
	var st stats.Stats
	st.Multipliers = e.cfg.MSSize
	var cycles int64

	for s0 := 0; s0 < outN; s0 += m.TS {
		ts := eff(s0, m.TS, outN)
		for n0 := 0; n0 < batches; n0 += m.TN {
			tn := eff(n0, m.TN, batches)
			redIdx := 0
			for k0 := 0; k0 < inN; k0 += m.TK {
				tk := eff(k0, m.TK, inN)
				redIdx++
				nv := int64(ts * tn)

				// Weights are single-use: T_S × T_K fresh values per step.
				// Inputs multicast across the T_S output-neuron VNs.
				wElems := int64(ts * tk)
				iElems := int64(tn * tk)
				firstRed := redIdx == 1
				recirc := ab.Accumulate(nv, firstRed)
				inCycles := dn.Deliver(wElems + iElems + recirc)
				st.WeightLoads += wElems
				st.InputLoads += iElems

				st.SpatialPsums += rn.ReduceMany(tk, nv)
				collect := nv
				if !firstRed && ab.Present {
					collect *= 2 // accumulation read-modify-write
				}
				drainCycles := rn.Drain(collect)

				step := max(inCycles, drainCycles, 1)
				cycles += step
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

// CountConvPsums returns, in closed form, the spatial-psum metric a full
// simulation of the mapping would report. Deriving it: every MAC feeds the
// reduction tree, and each virtual-neuron reduction of v values performs
// v − 1 additions, so psums = Σ_steps Σ_VN (vnEff − 1) = MACs − (number of
// VN-reductions) = MACs − outputs × (reduction-space tile count). The paper
// relies on this being computable "in less than a second" (§VII-B) — this
// is the fast tuning signal.
func CountConvPsums(d tensor.ConvDims, m mapping.ConvMapping) (int64, error) {
	if err := d.Resolve(); err != nil {
		return 0, err
	}
	ceil := func(a, b int) int64 { return int64((a + b - 1) / b) }
	outputs := int64(d.N) * int64(d.K) * int64(d.P()) * int64(d.Q())
	redTiles := ceil(d.C/d.G, m.TC) * ceil(d.R, m.TR) * ceil(d.S, m.TS)
	return d.MACs() - outputs*redTiles, nil
}

// CountFCPsums is the dense-layer analogue of CountConvPsums.
func CountFCPsums(batches, inNeurons, outNeurons int, m mapping.FCMapping) int64 {
	macs := int64(batches) * int64(inNeurons) * int64(outNeurons)
	redTiles := int64((inNeurons + m.TK - 1) / m.TK)
	return macs - int64(batches)*int64(outNeurons)*redTiles
}
