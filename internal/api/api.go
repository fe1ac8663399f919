// Package api is the STONNE-Bifrost API (§V of the paper): the boundary
// where layer information coming from the compiler (graph executor) is
// transformed into a format the simulator accepts, a fresh STONNE instance
// is configured and run, and the output is transformed back. The package
// exposes the same entry points the paper registers as TVM packed
// functions — tvm.contrib.stonne.conv2d.nchw, tvm.contrib.stonne.conv2d.nhwc
// and the dense operator — and implements each architecture's lowering:
// native NHWC convolution for MAERI, im2col GEMM for SIGMA and the TPU.
package api

import (
	"fmt"
	"time"

	"repro/internal/stonne"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// computeSeconds is the per-controller compute-time histogram family: the
// wall-clock cost of one layer execution through this API boundary
// (simulator configuration, lowering and arithmetic included), labelled by
// the short controller name. Observation is lock-free and allocation-free,
// so it is always on; the /metrics endpoint exposes the family and /stats
// serves its rollups via ComputeSummaries.
var computeSeconds = map[config.ControllerType]*telemetry.Histogram{
	config.MAERIDenseWorkload: newComputeHistogram("maeri"),
	config.SIGMASparseGEMM:    newComputeHistogram("sigma"),
	config.TPUOSDense:         newComputeHistogram("tpu"),
}

func newComputeHistogram(controller string) *telemetry.Histogram {
	return telemetry.Default().Histogram("bifrost_compute_seconds",
		"Layer execution wall-clock time per controller (lowering + simulation).",
		nil, telemetry.Label{Name: "controller", Value: controller})
}

// observeCompute records one layer execution's duration for cfg's
// controller. Unknown controllers (impossible after Validate) are dropped.
func observeCompute(cfg config.HWConfig, start time.Time) {
	if h, ok := computeSeconds[cfg.Controller]; ok {
		h.Observe(time.Since(start).Seconds())
	}
}

// ComputeSummaries returns the per-controller compute-time rollups keyed by
// short controller name, for the serve layer's /stats endpoint.
func ComputeSummaries() map[string]telemetry.HistogramSummary {
	out := make(map[string]telemetry.HistogramSummary, len(computeSeconds))
	out["maeri"] = computeSeconds[config.MAERIDenseWorkload].Summary()
	out["sigma"] = computeSeconds[config.SIGMASparseGEMM].Summary()
	out["tpu"] = computeSeconds[config.TPUOSDense].Summary()
	return out
}

// ConvParams is the Nvidia-taxonomy description of a convolution
// (Table II). It is an alias of the tensor package's geometry type, re-named
// here to document the API contract.
type ConvParams = tensor.ConvDims

// Conv2DNCHW executes a convolution with an NCHW input and KCRS kernel on a
// freshly configured simulator, returning the NCHW output. The execution
// path follows §V-B:
//
//   - MAERI: the input is transposed to NHWC and the kernel to RSCK on the
//     CPU (the conversion cost is not part of the simulated cycle count),
//     the layer runs natively, and the NPQK output is transformed to NKPQ.
//   - SIGMA / TPU: the convolution is lowered to GEMM ("GEMM convolution"):
//     per group, the kernel becomes the (K/G)×(C/G·R·S) stationary matrix
//     and the im2col input the (C/G·R·S)×(N·P·Q) streaming matrix.
func Conv2DNCHW(cfg config.HWConfig, in, kernel *tensor.Tensor, d ConvParams, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	return Conv2DNCHWOpts(cfg, in, kernel, d, m, Options{})
}

// Options tune how a layer executes without changing what it computes: the
// counters and output bytes are bitwise identical for every combination
// (enforced by the engine equivalence suites and the farmtest differential
// harness), so none of these fields participates in result cache keys.
type Options struct {
	// Workers caps the goroutines the GEMM-lowered convolution (SIGMA /
	// TPU) splits its column blocks over: 1 keeps it serial, > 1 is an
	// upper bound, and 0 or < 0 borrows whatever cores are idle. Every
	// kernel under a layer — this one, MAERI's fused conv and dense,
	// SIGMA's dense — splits only when the layer is big enough to repay it
	// and only onto helpers free in tensor.ParallelFor's process-wide
	// budget of GOMAXPROCS−1. A model run offloads one layer at a time, so
	// that layer may take the whole budget; a sweep of small jobs, or a job
	// that finds every helper taken by concurrent farm jobs, runs serially
	// whatever Workers says. Outputs are bitwise identical for every value.
	//
	// No production path sets it: its one source, job.Job.ExecWorkers, is
	// set only by the benchmark harness, which pins both fields. They go
	// together under ROADMAP item 1(c).
	Workers int

	// Pack shares a content-keyed cache of derived operand forms (packed
	// weight panels, kernel matrices, layout transposes) across layer
	// executions: a sweep over fixed weights derives each form once instead
	// of once per job.
	Pack *tensor.PackCache
}

// CheckConvOperands rejects operands whose shapes disagree with the
// resolved d: an NCHW input [N C H W] with a KCRS kernel [K C/G R S], or
// for nhwc an NHWC input [N H W C] with an RSCK kernel [R S C/G K]. Both
// entry points check here, before any layout work, so no architecture can
// index past a short operand or compute from part of a long one; a caller
// that serves a memoised output checks here before it looks one up.
func CheckConvOperands(in, kernel *tensor.Tensor, d ConvParams, nhwc bool) error {
	inLayout, kLayout := "NCHW", "KCRS"
	wantIn, wantK := [4]int{d.N, d.C, d.H, d.W}, [4]int{d.K, d.C / d.G, d.R, d.S}
	if nhwc {
		inLayout, kLayout = "NHWC", "RSCK"
		wantIn, wantK = [4]int{d.N, d.H, d.W, d.C}, [4]int{d.R, d.S, d.C / d.G, d.K}
	}
	switch {
	case in == nil || !tensor.ShapeEq(in.Shape(), wantIn[:]):
		return fmt.Errorf("api: conv input is not %s %v", inLayout, wantIn)
	case kernel == nil || !tensor.ShapeEq(kernel.Shape(), wantK[:]):
		return fmt.Errorf("api: conv kernel is not %s %v", kLayout, wantK)
	}
	return nil
}

// Conv2DNCHWOpts is Conv2DNCHW with full execution options.
func Conv2DNCHWOpts(cfg config.HWConfig, in, kernel *tensor.Tensor, d ConvParams, m mapping.ConvMapping, opt Options) (*tensor.Tensor, stats.Stats, error) {
	if err := d.Resolve(); err != nil {
		return nil, stats.Stats{}, err
	}
	if err := CheckConvOperands(in, kernel, d, false); err != nil {
		return nil, stats.Stats{}, err
	}
	defer observeCompute(cfg, time.Now())
	sim, err := stonne.New(cfg) // a new STONNE instance per layer (§V step 3)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	sim.SetPackCache(opt.Pack)
	if sim.SupportsDirectConv() {
		// The activation is new on every run — a pooled transient, never a
		// cache entry; the weights are what later runs and jobs re-read.
		nhwc := tensor.NCHWToNHWCPooled(in)
		rsck := tensor.KCRSToRSCKCached(kernel, opt.Pack)
		out, st, err := sim.Conv2D(nhwc, rsck, d, m)
		nhwc.Release()
		if err != nil {
			return nil, stats.Stats{}, err
		}
		nkpq := tensor.NPQKToNKPQ(out)
		out.Release() // transient NPQK intermediate, pooled by the engine
		return nkpq, st, nil
	}
	return convViaGEMM(sim, in, kernel, d, opt)
}

// convViaGEMM lowers a convolution to per-group GEMMs for the architectures
// without native convolution support (§V-B-2/3). The lowering is
// im2col-free: the simulator's counters are computed from the stationary
// kernel matrix and the streaming shape alone (Simulator.GEMMStats), and
// the exact arithmetic runs through the fused implicit-GEMM kernel, which
// streams kernel-window column panels block-by-block instead of
// materialising the (C/G·R·S) × (N·P·Q) matrix. The output is bitwise
// identical to the materialised path (GEMM over Im2Col): both accumulate
// each output element in ascending (C, R, S) order.
//
// A layer big enough to repay it has its column panels split, bounded by
// opt.Workers, onto helpers from tensor.ParallelFor's process-wide budget
// of GOMAXPROCS−1: the graph executor runs one node at a time, so the cores
// a model run leaves idle go to the layer itself.
// A job below the size threshold — every sweep job — or one that finds the
// budget spent runs serially. The result is bitwise identical however the
// panels were split.
func convViaGEMM(sim *stonne.Simulator, in, kernel *tensor.Tensor, d ConvParams, opt Options) (*tensor.Tensor, stats.Stats, error) {
	p, q := d.P(), d.Q()
	cols := d.N * p * q
	var total stats.Stats
	for g := 0; g < d.G; g++ {
		km := tensor.KernelMatrixCached(kernel, d, g, opt.Pack) // (K/G) × (C/G·R·S), weight-stationary
		st, err := sim.GEMMStats(km, cols)
		if err != nil {
			return nil, stats.Stats{}, err
		}
		total.Add(st)
	}
	return tensor.ConvGEMMImplicit(in, kernel, d, opt.Workers), total, nil
}

// Conv2DNHWC executes a convolution with an NHWC input and RSCK kernel
// (the TensorFlow-default layouts), returning the NHWC output. MAERI runs
// it natively with no layout conversion ("the layer can be executed with
// minimal change to the data provided by TVM"); GEMM architectures reuse
// the NCHW lowering after a CPU-side transpose.
func Conv2DNHWC(cfg config.HWConfig, in, kernel *tensor.Tensor, d ConvParams, m mapping.ConvMapping) (*tensor.Tensor, stats.Stats, error) {
	return Conv2DNHWCOpts(cfg, in, kernel, d, m, Options{})
}

// Conv2DNHWCOpts is Conv2DNHWC with full execution options.
func Conv2DNHWCOpts(cfg config.HWConfig, in, kernel *tensor.Tensor, d ConvParams, m mapping.ConvMapping, opt Options) (*tensor.Tensor, stats.Stats, error) {
	if err := d.Resolve(); err != nil {
		return nil, stats.Stats{}, err
	}
	if err := CheckConvOperands(in, kernel, d, true); err != nil {
		return nil, stats.Stats{}, err
	}
	defer observeCompute(cfg, time.Now())
	sim, err := stonne.New(cfg)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	sim.SetPackCache(opt.Pack)
	if sim.SupportsDirectConv() {
		out, st, err := sim.Conv2D(in, kernel, d, m)
		if err != nil {
			return nil, stats.Stats{}, err
		}
		return out, st, nil // NPQK is NHWC for the output tensor
	}
	nchw := tensor.NHWCToNCHWCached(in, opt.Pack)
	kcrs := tensor.RSCKToKCRSCached(kernel, opt.Pack)
	out, st, err := convViaGEMM(sim, nchw, kcrs, d, opt)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	nhwc := tensor.NCHWToNHWC(out)
	out.Release() // transient NCHW intermediate, pooled by the lowering
	return nhwc, st, nil
}

// Dense executes a fully connected layer (input [M, K] × weights [S, K] →
// [M, S]). Only the linear transformation runs on the accelerator; any
// activation stays on the CPU target (§V-A).
func Dense(cfg config.HWConfig, in, weights *tensor.Tensor, m mapping.FCMapping) (*tensor.Tensor, stats.Stats, error) {
	return DenseOpts(cfg, in, weights, m, Options{})
}

// DenseOpts is Dense with full execution options.
func DenseOpts(cfg config.HWConfig, in, weights *tensor.Tensor, m mapping.FCMapping, opt Options) (*tensor.Tensor, stats.Stats, error) {
	defer observeCompute(cfg, time.Now())
	sim, err := stonne.New(cfg)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	sim.SetPackCache(opt.Pack)
	return sim.Dense(in, weights, m)
}

// LayerRecord captures what a simulated layer execution reported — the
// "record the simulated cycle count and/or partial sums" step (§V step 7).
type LayerRecord struct {
	Name    string
	Op      string // "conv2d" or "dense"
	Arch    config.ControllerType
	Mapping string
	Stats   stats.Stats
}

// String renders one report line.
func (r LayerRecord) String() string {
	return fmt.Sprintf("%-12s %-7s %-22s mapping=[%s] %s", r.Name, r.Op, r.Arch, r.Mapping, r.Stats)
}
