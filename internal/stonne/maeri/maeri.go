// Package maeri simulates the MAERI architecture (Kwon et al., ASPLOS 2018)
// as implemented in STONNE: a linear array of multiplier switches fed by a
// chubby-tree distribution network and reduced by an augmented reduction
// tree (ART) or fold-enabled network (FEN), with an optional accumulation
// buffer.
//
// The cost model is cycle-stepped at tile granularity: a dataflow mapping
// (Tables IV/V) partitions the layer's iteration space into steps; within a
// step the configured virtual neurons each perform one spatial reduction,
// and the step's cycle cost is the maximum of its distribution-network
// occupancy (unique values ÷ dn_bw, multicast free), its reduction-network
// drain (virtual neurons ÷ rn_bw) and one compute cycle. The step loop that
// defines the model lives in the oracle package; this engine evaluates it in
// closed form (analytic.go) and computes outputs through fused kernels
// (fused.go), both bit-identical to the loop. Outputs are exact and are
// verified against the CPU operator inventory in tests.
package maeri

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// Engine simulates one MAERI instance. Engines are cheap: Bifrost creates a
// new instance per offloaded layer ("Create a new instance of STONNE", §V).
// An Engine keeps no state between calls, so once its fields are set it may
// serve concurrent calls.
type Engine struct {
	cfg config.HWConfig

	// DryRun skips output arithmetic while keeping every counter exact;
	// cycle counts do not depend on operand values for the dense MAERI
	// pipeline. Used by mapping search loops.
	//
	// Counters and arithmetic are decoupled: neither dry nor full-accuracy
	// runs step through the mapping's tiles. Stats always come from the
	// analytical model — interior tile steps with identical effective tile
	// sizes have identical cost, so the loop nest collapses to at most two
	// size classes per axis, O(boundary classes) instead of O(steps) — and a
	// full-accuracy run computes its output tensor through the fused
	// arithmetic kernels (fused.go), which reproduce the step loop's
	// per-reduction-tile accumulation order exactly. Both halves are
	// bit-identical to the oracle (proven by the equivalence tests).
	DryRun bool
}

// eff clamps a tile that would run past its dimension: the effective size
// of the tile starting at base.
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
	// Analytic counters, and for full-accuracy runs the fused arithmetic
	// kernel.
	st := e.analyticConv(d, m)
	if e.DryRun {
		return nil, st, nil
	}
	return fusedConv(in, kernel, d, m), st, nil
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
	return fusedDense(in, weights, m), e.analyticDense(batches, inN, outN, m), nil
}

// DenseStats returns the counters Dense reports for an input of [batches,
// inN] against weights of [outN, inN], from the shapes alone — MAERI's
// dense counters never depend on operand values, so the cycles-target
// tuners and dry-run jobs need no tensors at all (as Conv2D(nil, nil, d, m)
// is for a dry-run convolution).
func (e *Engine) DenseStats(batches, inN, outN int, m mapping.FCMapping) (stats.Stats, error) {
	if err := m.Validate(batches, inN, outN, e.cfg.MSSize); err != nil {
		return stats.Stats{}, err
	}
	return e.analyticDense(batches, inN, outN, m), nil
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
