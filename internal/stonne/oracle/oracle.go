// Package oracle is the reference simulator: the simulations the production
// engines' analytic counters and fused arithmetic were derived from and must
// stay bit-identical to — MAERI's tile-step loop, SIGMA's chunk-by-chunk
// memory-controller loop, the TPU's cycle-ticked systolic mesh, and the
// materialised-im2col lowering of convolutions onto the two GEMM
// architectures. It drives the fabric models step by step and performs each
// step's exact arithmetic in place, so it is orders of magnitude slower than
// the engines and nothing on a production path calls it.
//
// The package is deliberately independent of what it checks: it imports no
// engine package and takes no pack cache, and it builds its fabrics afresh on
// every call. farm.Run selects it for jobs with Job.Reference set — the only
// selector there is — and the engines' equivalence suites call it directly.
//
// The bitwise contract with the engines assumes finite operands (see
// farm.Job.Reference).
package oracle

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/fabric"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// validated normalises and validates cfg and resolves the conv geometry, the
// checks every layer entry point starts with.
func validated(cfg config.HWConfig, d *tensor.ConvDims) (config.HWConfig, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if d != nil {
		return cfg, d.Resolve()
	}
	return cfg, nil
}

// Conv2DNCHW simulates a convolution with an NCHW input and KCRS kernel,
// returning the NCHW output: natively on MAERI after a layout transpose,
// lowered to per-group GEMMs over the materialised im2col matrix on SIGMA
// and the TPU (which ignore the mapping).
func Conv2DNCHW(cfg config.HWConfig, in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	cfg, err := validated(cfg, &d)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	if cfg.Controller != config.MAERIDenseWorkload {
		return convViaGEMM(cfg, in, kernel, d)
	}
	out, st, err := maeriConv(cfg, tensor.NCHWToNHWC(in), tensor.KCRSToRSCK(kernel), d, m)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	return tensor.NPQKToNKPQ(out), st, nil
}

// Conv2DNHWC simulates a convolution with an NHWC input and RSCK kernel,
// returning the NHWC output. MAERI runs it as is; the GEMM architectures
// reuse the NCHW lowering after a transpose.
func Conv2DNHWC(cfg config.HWConfig, in, kernel *tensor.Tensor, d tensor.ConvDims, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	cfg, err := validated(cfg, &d)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	if cfg.Controller == config.MAERIDenseWorkload {
		return maeriConv(cfg, in, kernel, d, m)
	}
	out, st, err := convViaGEMM(cfg, tensor.NHWCToNCHW(in), tensor.RSCKToKCRS(kernel), d)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	return tensor.NCHWToNHWC(out), st, nil
}

// ConvStats is the counters-only form of a MAERI convolution: the step loop
// with its arithmetic left out. The other architectures have no such mode.
func ConvStats(cfg config.HWConfig, d tensor.ConvDims, m mapping.ConvMapping) (stats.Stats, error) {
	cfg, err := validated(cfg, &d)
	if err != nil {
		return stats.Stats{}, err
	}
	if cfg.Controller != config.MAERIDenseWorkload {
		return stats.Stats{}, fmt.Errorf("oracle: counters-only runs need MAERI_DENSE_WORKLOAD, got %s", cfg.Controller)
	}
	_, st, err := maeriConv(cfg, nil, nil, d, m)
	return st, err
}

// Dense simulates a fully connected layer: input [M, K] × weights [S, K] →
// [M, S]. The mapping applies to MAERI only; SIGMA keeps the weights
// stationary, the TPU multiplies input × weightsᵀ.
func Dense(cfg config.HWConfig, in, weights *tensor.Tensor, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	cfg, err := validated(cfg, nil)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	if in == nil || weights == nil || in.Rank() != 2 || weights.Rank() != 2 || in.Dim(1) != weights.Dim(1) {
		return nil, stats.Stats{}, fmt.Errorf("oracle: dense requires a 2-D input and weights sharing their second dimension")
	}
	switch cfg.Controller {
	case config.MAERIDenseWorkload:
		return maeriDense(cfg, in, weights, in.Dim(0), in.Dim(1), weights.Dim(0), m)
	case config.SIGMASparseGEMM:
		prod, st, err := sigmaGEMM(cfg, weights, in.Transpose(1, 0)) // [S, M]
		if err != nil {
			return nil, stats.Stats{}, err
		}
		return prod.Transpose(1, 0), st, nil
	default:
		return tpuGEMM(cfg, in, weights.Transpose(1, 0))
	}
}

// DenseStats is the counters-only form of a MAERI dense layer, from the
// shapes alone.
func DenseStats(cfg config.HWConfig, batches, inN, outN int, m mapping.FCMapping) (stats.Stats, error) {
	cfg, err := validated(cfg, nil)
	if err != nil {
		return stats.Stats{}, err
	}
	if cfg.Controller != config.MAERIDenseWorkload {
		return stats.Stats{}, fmt.Errorf("oracle: counters-only runs need MAERI_DENSE_WORKLOAD, got %s", cfg.Controller)
	}
	_, st, err := maeriDense(cfg, nil, nil, batches, inN, outN, m)
	return st, err
}

// GEMM simulates a plain matrix multiply, a [M, K] × b [K, N], on SIGMA (a
// is the stationary operand) or the TPU. It is the primitive the lowering
// and Dense are built on; cfg is taken as given, so the equivalence suites
// can drive it at multiplier counts no valid configuration allows but where
// every nonzero is a chunk boundary.
func GEMM(cfg config.HWConfig, a, b *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		return nil, stats.Stats{}, fmt.Errorf("oracle: GEMM requires 2-D operands with matching inner dimensions, got %v × %v", a.Shape(), b.Shape())
	}
	switch cfg.Controller {
	case config.SIGMASparseGEMM:
		return sigmaGEMM(cfg, a, b)
	case config.TPUOSDense:
		return tpuGEMM(cfg, a, b)
	}
	return nil, stats.Stats{}, fmt.Errorf("oracle: %s has no raw GEMM; use Dense with an FC mapping", cfg.Controller)
}

// convViaGEMM is the materialised lowering (§V-B-2/3): per group the full
// (C/G·R·S) × (N·P·Q) im2col matrix is built and the simulated GEMM computes
// both counters and product, which is then scattered into the NCHW output.
func convViaGEMM(cfg config.HWConfig, in, kernel *tensor.Tensor, d tensor.ConvDims) (*tensor.Tensor, stats.Stats, error) {
	pq := d.P() * d.Q()
	cols := d.N * pq
	kg := d.K / d.G
	out := tensor.New(d.N, d.K, d.P(), d.Q())
	outD := out.Data()
	var total stats.Stats
	for g := 0; g < d.G; g++ {
		prod, st, err := GEMM(cfg, tensor.KernelMatrix(kernel, d, g), tensor.Im2Col(in, d, g)) // kg × cols
		if err != nil {
			return nil, stats.Stats{}, err
		}
		total.Add(st)
		prodD := prod.Data()
		for kk := 0; kk < kg; kk++ {
			ch := g*kg + kk
			for n := 0; n < d.N; n++ {
				copy(outD[(n*d.K+ch)*pq:(n*d.K+ch)*pq+pq], prodD[kk*cols+n*pq:kk*cols+(n+1)*pq])
			}
		}
	}
	return out, total, nil
}

// fabrics builds the distribution network, reduction network and
// accumulation buffer of a MAERI or SIGMA instance, counters at zero. MAERI
// reduces through the configured tree; SIGMA's FAN, which reduces groups of
// any size, is modelled by the fold-enabled network whatever cfg says.
func fabrics(cfg config.HWConfig) (*fabric.DistributionNetwork, *fabric.ReductionNetwork, *fabric.AccumulationBuffer, error) {
	kind := fabric.FEN
	if cfg.Controller == config.MAERIDenseWorkload && cfg.ReduceNetwork != config.FENetwork {
		kind = fabric.ART
	}
	dn, err := fabric.NewDistributionNetwork(cfg.DNBandwidth)
	if err != nil {
		return nil, nil, nil, err
	}
	rn, err := fabric.NewReductionNetwork(kind, cfg.RNBandwidth)
	if err != nil {
		return nil, nil, nil, err
	}
	return dn, rn, fabric.NewAccumulationBuffer(cfg.AccumBuffer), nil
}
