// Package stonne is the façade over the simulated accelerator controllers:
// it dispatches layer executions to the MAERI, SIGMA or TPU engine selected
// by the hardware configuration, presenting the single interface the
// STONNE-Bifrost API layer programs against. It corresponds to the STONNE
// simulator that Bifrost configures and invokes once per offloaded layer.
package stonne

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/sigma"
	"repro/internal/stonne/stats"
	"repro/internal/stonne/tpu"
	"repro/internal/tensor"
)

// Simulator is one configured STONNE instance. Bifrost creates a fresh
// instance per offloaded layer (§V step 3 of the paper).
type Simulator struct {
	cfg config.HWConfig

	maeriEng *maeri.Engine
	sigmaEng *sigma.Engine
	tpuEng   *tpu.Engine
}

// New validates the configuration and instantiates the selected controller.
func New(cfg config.HWConfig) (*Simulator, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	var err error
	switch cfg.Controller {
	case config.MAERIDenseWorkload:
		s.maeriEng, err = maeri.NewEngine(cfg)
	case config.SIGMASparseGEMM:
		s.sigmaEng, err = sigma.NewEngine(cfg)
	case config.TPUOSDense:
		s.tpuEng, err = tpu.NewEngine(cfg)
	default:
		err = fmt.Errorf("stonne: unknown controller_type %q", cfg.Controller)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the (normalised) hardware configuration.
func (s *Simulator) Config() config.HWConfig { return s.cfg }

// SetPackCache shares a content-keyed pack cache with the simulator's
// engine: packed GEMM panels, weight transposes and row summaries are then
// reused across simulator instances that hold the same operands — the
// allocation-free steady state of a sweep over fixed network weights. The
// MAERI engine derives nothing worth keeping (its kernel panel is per-call
// scratch), so only SIGMA and the TPU take the cache.
// Counters and output bytes are bitwise identical with or without a cache
// (the pack reuse changes where packed bytes come from, never what they
// are), so the cache never participates in result cache keys. It returns s
// for chaining.
func (s *Simulator) SetPackCache(pc *tensor.PackCache) *Simulator {
	switch {
	case s.sigmaEng != nil:
		s.sigmaEng.Pack = pc
	case s.tpuEng != nil:
		s.tpuEng.Pack = pc
	}
	return s
}

// SupportsDirectConv reports whether the architecture executes convolutions
// natively. SIGMA and the TPU only support GEMM, so the API layer lowers
// their convolutions via im2col (§V-B-2/3).
func (s *Simulator) SupportsDirectConv() bool { return s.maeriEng != nil }

// Conv2D executes a convolution natively on MAERI (NHWC input, RSCK
// kernel, NPQK output). Other architectures return an error; their
// convolutions must be lowered to GEMM by the API layer.
func (s *Simulator) Conv2D(in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	if s.maeriEng == nil {
		return nil, stats.Stats{}, fmt.Errorf("stonne: %s does not support direct convolution; lower to GEMM", s.cfg.Controller)
	}
	return s.maeriEng.Conv2D(in, kernel, d, m)
}

// Dense executes a fully connected layer: input [M, K] × weights [S, K] →
// [M, S]. The FC mapping applies to MAERI only: "in SIGMA architectures the
// memory controller automatically tiles the matrix depending on the level
// of sparsity; and since the TPU has a fixed dataflow architecture, the
// tiling can not be changed" (§V-A).
func (s *Simulator) Dense(in, weights *tensor.Tensor, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	switch {
	case s.maeriEng != nil:
		return s.maeriEng.Dense(in, weights, m)
	case s.sigmaEng != nil:
		return s.sigmaEng.Dense(in, weights)
	default:
		return s.tpuEng.Dense(in, weights)
	}
}

// GEMM executes a plain matrix multiply (a [M,K] × b [K,N] → [M,N]) on a
// GEMM-capable architecture (SIGMA, TPU). MAERI workloads should use Conv2D
// or Dense, which carry the dataflow mapping.
func (s *Simulator) GEMM(a, b *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	switch {
	case s.sigmaEng != nil:
		return s.sigmaEng.GEMM(a, b)
	case s.tpuEng != nil:
		return s.tpuEng.GEMM(a, b)
	default:
		return nil, stats.Stats{}, fmt.Errorf("stonne: MAERI has no raw GEMM entry point; use Dense with an FC mapping")
	}
}

// GEMMStats computes the statistics of GEMM(stationary, streaming) for a
// streaming operand of streamCols columns without running arithmetic and
// without the streaming matrix ever being materialised: SIGMA's counters
// depend only on the stationary operand's nonzero structure and the column
// count, the TPU's only on the shapes. Stats are bit-identical to GEMM's.
// This is what lets the API layer lower convolutions without building the
// im2col matrix.
func (s *Simulator) GEMMStats(stationary *tensor.Tensor, streamCols int) (stats.Stats, error) {
	switch {
	case s.sigmaEng != nil:
		return s.sigmaEng.GEMMStats(stationary, streamCols)
	case s.tpuEng != nil:
		if stationary.Rank() != 2 {
			return stats.Stats{}, fmt.Errorf("stonne: GEMMStats requires a 2-D stationary operand, got %v", stationary.Shape())
		}
		return s.tpuEng.GEMMStats(stationary.Dim(0), stationary.Dim(1), streamCols)
	default:
		return stats.Stats{}, fmt.Errorf("stonne: MAERI has no raw GEMM entry point; use Dense with an FC mapping")
	}
}
