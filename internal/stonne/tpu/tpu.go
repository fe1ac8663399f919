// Package tpu simulates STONNE's fixed systolic-array architecture
// (TPU_OS_DENSE): an OS_MESH of ms_rows × ms_cols processing elements with a
// rigid dataflow and a mandatory accumulation buffer. The mesh itself —
// operands physically propagating through the pipeline registers with the
// canonical skew, cycle by cycle, PE by PE — is simulated by the oracle
// package; this engine reports the same counters in closed form and the
// same output bytes through the fast GEMM kernel.
//
// The TPU has no mapping space: "since the TPU has a fixed dataflow
// architecture, the tiling can not be changed" (§V-A).
package tpu

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// Engine simulates one TPU instance. An Engine keeps no state between calls,
// so once its fields are set it may serve concurrent calls.
//
// Counters and arithmetic are decoupled: the OS_MESH's per-tile cost is a
// closed-form function of the tile geometry, so Stats collapse to a handful
// of tile classes (GEMMStats), and the output comes from the fast GEMM
// kernel — each PE accumulates its output element's products in ascending-K
// order with ±0 no-ops while operands are in flight, exactly the chain
// tensor.GEMM computes. Both are bit-identical to the cycle-ticked mesh.
type Engine struct {
	cfg config.HWConfig

	// Pack, when set, shares content-keyed derived operands across engines:
	// the dense lowering's transposed weight matrix and the fused GEMM's
	// packed B-panels are built once per distinct operand instead of once
	// per job. Outputs are bitwise identical with or without it.
	Pack *tensor.PackCache
}

// NewEngine validates the hardware configuration and returns an engine.
func NewEngine(cfg config.HWConfig) (*Engine, error) {
	cfg = cfg.Normalize()
	if cfg.Controller != config.TPUOSDense {
		return nil, fmt.Errorf("tpu: controller_type must be TPU_OS_DENSE, got %s", cfg.Controller)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// GEMM computes out = a × b for a [M, K] and b [K, N]. On the mesh the
// output is tiled into ms_rows × ms_cols blocks, each computed
// output-stationary with operands streamed through the skewed edges; a PE's
// accumulator sums a[r,i]·b[i,c] for i ascending (the skew aligns both
// operands on the same index; out-of-range ticks multiply zero-fed
// registers, contributing ±0 no-ops), so tensor.GEMM reproduces the output
// bytes exactly.
func (e *Engine) GEMM(a, b *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return nil, stats.Stats{}, fmt.Errorf("tpu: GEMM requires 2-D operands, got %v × %v", a.Shape(), b.Shape())
	}
	if a.Dim(1) != b.Dim(0) {
		return nil, stats.Stats{}, fmt.Errorf("tpu: GEMM inner dimensions differ: %v × %v", a.Shape(), b.Shape())
	}
	st, err := e.GEMMStats(a.Dim(0), a.Dim(1), b.Dim(1))
	if err != nil {
		return nil, st, err
	}
	return tensor.GEMMCached(a, b, e.Pack), st, nil
}

// GEMMStats computes the statistics of an [M, K] × [K, N] GEMM in closed
// form, without ticking the mesh: every output tile costs
// K + Rows + Cols − 1 cycles regardless of how much of the mesh it covers
// (zero-padded lanes tick like active ones), and the edge traffic of a tile
// is k × (active rows + active columns), which takes at most four distinct
// values across the tile grid. Stats are bit-identical to the cycle-ticked
// simulation's (proven by the equivalence tests).
func (e *Engine) GEMMStats(m, k, n int) (stats.Stats, error) {
	if m < 1 || k < 1 || n < 1 {
		return stats.Stats{}, fmt.Errorf("tpu: GEMMStats needs positive dims, got %d×%d×%d", m, k, n)
	}
	rows, cols := e.cfg.MSRows, e.cfg.MSCols
	if rows < 1 || cols < 1 {
		return stats.Stats{}, fmt.Errorf("tpu: mesh needs positive dims, got %dx%d", rows, cols)
	}
	var st stats.Stats
	st.Multipliers = rows * cols
	st.Outputs = int64(m) * int64(n)
	st.MACs = int64(m) * int64(k) * int64(n)

	// Tile classes along each output axis: interior tiles cover the full
	// mesh extent, the optional boundary tile covers the remainder.
	type class struct {
		size  int
		count int64
	}
	classes := func(dim, tile int) []class {
		cls := []class{}
		if full := dim / tile; full > 0 {
			cls = append(cls, class{size: tile, count: int64(full)})
		}
		if rem := dim % tile; rem > 0 {
			cls = append(cls, class{size: rem, count: 1})
		}
		return cls
	}
	tileCycles := int64(k + rows + cols - 2 + 1) // skewed drain + 1 write-back
	var cycles int64
	for _, rc := range classes(m, rows) {
		for _, cc := range classes(n, cols) {
			count := rc.count * cc.count
			cycles += count * tileCycles
			elems := int64(k) * int64(rc.size+cc.size)
			st.DNElements += count * elems
			st.InputLoads += count * elems
			st.AccumWrites += count * int64(rc.size) * int64(cc.size)
			st.Steps += count
		}
	}
	st.Cycles = cycles
	return st, nil
}

// Dense executes a fully connected layer: input [M, K] × weights [S, K] →
// [M, S]. The TPU multiplies data × weightsᵀ.
func (e *Engine) Dense(in, weights *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	if in.Rank() != 2 || weights.Rank() != 2 {
		return nil, stats.Stats{}, fmt.Errorf("tpu: dense requires 2-D input and weights, got %v and %v", in.Shape(), weights.Shape())
	}
	if in.Dim(1) != weights.Dim(1) {
		return nil, stats.Stats{}, fmt.Errorf("tpu: dense reduction mismatch: input %v vs weights %v", in.Shape(), weights.Shape())
	}
	// Operands are never mutated, so the transposed weight matrix can be
	// shared content-keyed across jobs.
	return e.GEMM(in, tensor.Transpose2DCached(weights, e.Pack))
}
