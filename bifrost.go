// Package bifrost is the public API of this reproduction of "Bifrost:
// End-to-End Evaluation and Optimization of Reconfigurable DNN
// Accelerators" (Stjerngren, Gibson, Cano — ISPASS 2022).
//
// Bifrost glues a deep-learning compiler to the STONNE cycle-accurate
// simulator for reconfigurable DNN accelerators. This package re-exports
// the pieces a user composes, mirroring the paper's workflow (Listing 1):
//
//	arch := bifrost.DefaultArchitecture(bifrost.MAERI)
//	arch.MSSize = 128                      // "set the amount of multipliers"
//	sess, err := bifrost.NewSession(arch)  // simulator configurator
//	outs, err := sess.Run(model, feeds)    // transparent end-to-end run
//	fmt.Println(sess.Report())             // per-layer cycles and psums
//
// Mappings can be generated automatically (basic), tuned with the AutoTVM
// module (TuneConvMapping/TuneFCMapping), or produced by the integrated
// mRNA-style specialised mapper (NewMRNAMapper).
package bifrost

import (
	"repro/internal/autotune"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/importer"
	"repro/internal/models"
	"repro/internal/mrna"
	"repro/internal/stonne/config"
	"repro/internal/stonne/magma"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// Re-exported core types. The aliases make the whole public surface
// reachable from the single bifrost package while the implementation stays
// in focused internal packages.
type (
	// Architecture is a hardware configuration for a simulated accelerator
	// (Table III of the paper).
	Architecture = config.HWConfig
	// ControllerType selects MAERI, SIGMA or the TPU.
	ControllerType = config.ControllerType
	// Session is a configured Bifrost run context.
	Session = core.Session
	// Graph is the model IR.
	Graph = graph.Graph
	// Tensor is the dense float32 tensor exchanged across the stack.
	Tensor = tensor.Tensor
	// ConvMapping is a MAERI convolution tile configuration (Table IV).
	ConvMapping = mapping.ConvMapping
	// FCMapping is a MAERI fully connected tile configuration (Table V).
	FCMapping = mapping.FCMapping
	// ConvDims is the convolution geometry (Table II taxonomy).
	ConvDims = tensor.ConvDims
	// Stats are the metrics one simulated layer reports.
	Stats = stats.Stats
	// LayerSpec describes one offloadable layer extracted from a model.
	LayerSpec = models.LayerSpec
	// TuneResult summarises an AutoTVM-module search.
	TuneResult = autotune.Result
	// MRNAMapper is the integrated specialised mapping tool for MAERI.
	MRNAMapper = mrna.Mapper
)

// Accelerator architectures available in the simulator.
const (
	MAERI = config.MAERIDenseWorkload
	SIGMA = config.SIGMASparseGEMM
	TPU   = config.TPUOSDense
)

// DefaultArchitecture returns the paper's baseline configuration for the
// given controller (128 multipliers, 64-wide networks for MAERI/SIGMA; an
// 8×8 mesh for the TPU).
func DefaultArchitecture(ct ControllerType) Architecture { return config.Default(ct) }

// NewSession validates an architecture and returns a run context. Invalid
// configurations are rejected, "preventing developers from providing
// invalid hardware configurations" (§VI).
func NewSession(arch Architecture) (*Session, error) { return core.NewSession(arch) }

// Farm is the concurrent simulation farm: a worker-pool scheduler with a
// content-addressed two-tier result cache and single-flight deduplication.
// Share one farm between sessions, tuners and the bifrost-serve service so
// identical layer simulations are only ever run once:
//
//	fm := bifrost.NewFarm(0) // GOMAXPROCS workers
//	defer fm.Close()
//	sess, _ := bifrost.NewSession(arch)
//	sess.WithFarm(fm)
//
// The in-memory tier is LRU-bounded (256 MiB by default; FarmMaxBytes sets
// the bound), and a persistent tier (FarmDiskCache) makes results survive
// process restarts — a cold process replaying a warm cache directory
// returns byte-identical results with zero simulator executions:
//
//	disk, _ := bifrost.NewDiskStore("/var/cache/bifrost", 0)
//	fm := bifrost.NewFarm(0, bifrost.FarmMaxBytes(64<<20), bifrost.FarmDiskCache(disk))
type Farm = farm.Farm

// FarmOption configures a Farm at construction.
type FarmOption = farm.Option

// DiskStore is the persistent result-cache tier: append-only segment files
// under a versioned directory with an in-memory index of one entry per
// live key, one append per write, corruption-tolerant reads.
type DiskStore = farm.DiskStore

// NewDiskStore opens (or creates) a persistent result store rooted at dir;
// maxBytes > 0 bounds its size, deleting the oldest segments first.
func NewDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	return farm.NewDiskStore(dir, maxBytes)
}

// FarmMaxBytes bounds the farm's in-memory cache tier to b resident bytes;
// b <= 0 keeps the default bound, 256 MiB.
func FarmMaxBytes(b int64) FarmOption { return farm.WithMaxBytes(b) }

// FarmDiskCache attaches a persistent tier to the farm.
func FarmDiskCache(ds *DiskStore) FarmOption { return farm.WithDiskStore(ds) }

// FarmStore is one tier of a farm's result cache; implement it to attach a
// custom persistent tier (FarmDiskStore), or wrap a DiskStore in a
// RetryStore for fault tolerance.
type FarmStore = farm.Store

// FarmDiskStore attaches any FarmStore as the farm's persistent tier — the
// generic form of FarmDiskCache, for wrapped or custom stores.
func FarmDiskStore(s FarmStore) FarmOption { return farm.WithDiskStore(s) }

// RetryPolicy configures a RetryStore: bounded-exponential retry of
// transient failures and the health breaker that quarantines a
// repeatedly-failing tier.
type RetryPolicy = farm.RetryPolicy

// DefaultRetryPolicy returns the retry/breaker configuration bifrost-serve
// uses for its disk tier.
func DefaultRetryPolicy() RetryPolicy { return farm.DefaultRetryPolicy() }

// RetryStore wraps a persistent tier with transient-fault retries and a
// health breaker: a dying disk degrades the farm to memory-only —
// byte-identical results, no stalled workers — and is re-probed until it
// recovers.
//
//	ds, _ := bifrost.NewDiskStore(dir, 0)
//	fm := bifrost.NewFarm(0, bifrost.FarmDiskStore(
//		bifrost.NewRetryStore(ds, bifrost.DefaultRetryPolicy())))
type RetryStore = farm.RetryStore

// NewRetryStore wraps inner with policy; the wrapper owns inner and closes
// it when closed itself.
func NewRetryStore(inner FarmStore, policy RetryPolicy) *RetryStore {
	return farm.NewRetryStore(inner, policy)
}

// NewFarm returns a running simulation farm; workers <= 0 selects
// GOMAXPROCS.
func NewFarm(workers int, opts ...FarmOption) *Farm { return farm.New(workers, opts...) }

// NewTensor returns a zero-initialised tensor with the given shape — the
// constructor external callers need to build feeds, since the tensor
// implementation lives in an internal package.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// TensorFromData wraps an existing row-major slice in a tensor (the slice
// is used directly, not copied).
func TensorFromData(data []float32, shape ...int) *Tensor { return tensor.FromData(data, shape...) }

// RandomTensor returns a seeded uniform random tensor, the deterministic
// input generator used throughout the benchmarks and the serve API.
func RandomTensor(seed int64, scale float32, shape ...int) *Tensor {
	return tensor.RandomUniform(seed, scale, shape...)
}

// BasicConvMapping returns the automatically generated all-ones mapping.
func BasicConvMapping() ConvMapping { return mapping.Basic() }

// BasicFCMapping returns the automatically generated all-ones FC mapping.
func BasicFCMapping() FCMapping { return mapping.BasicFC() }

// AlexNet builds the paper's benchmark model with seeded random weights.
func AlexNet(seed int64) *Graph { return models.AlexNet(seed) }

// AlexNetLayers returns the 5 conv + 3 FC layer geometries of AlexNet.
func AlexNetLayers() []LayerSpec { return models.AlexNetLayers() }

// LeNet5 builds a LeNet-5 style CNN for 28×28 inputs.
func LeNet5(seed int64) *Graph { return models.LeNet5(seed) }

// LoadModel reads a model in the JSON interchange format (the stand-in for
// TVM's PyTorch/TensorFlow/ONNX importers).
func LoadModel(path string) (*Graph, error) { return importer.LoadFile(path) }

// SaveModel writes a model in the JSON interchange format.
func SaveModel(path string, g *Graph) error { return importer.SaveFile(path, g) }

// Tuner names accepted by the tuning helpers.
type Tuner string

// Tuners available in the AutoTVM module (§VII: grid search, GATuner and
// XGBoost, plus random search as a baseline).
const (
	TunerGrid   Tuner = "grid"
	TunerRandom Tuner = "random"
	TunerGA     Tuner = "ga"
	TunerXGB    Tuner = "xgb"
)

func tunerOf(t Tuner) autotune.Tuner {
	switch t {
	case TunerGrid:
		return autotune.GridSearch{}
	case TunerGA:
		return autotune.GATuner{}
	case TunerRandom:
		return autotune.RandomSearch{}
	default:
		return autotune.XGBTuner{}
	}
}

// Target selects the tuning metric (§VII-B): cycle counts (accurate but
// expensive — every measurement is a full simulation) or psums (cheap,
// loosely correlated with performance).
type Target string

// Tuning targets.
const (
	TargetCycles Target = "cycles"
	TargetPsums  Target = "psums"
)

// TuneOptions bounds a tuning run.
type TuneOptions struct {
	Tuner         Tuner
	Target        Target
	Trials        int
	EarlyStopping int
	Seed          int64

	// Farm, when set with the cycles target, routes every measurement
	// through the simulation farm: trials run concurrently, repeated
	// configurations are served from the content-addressed cache, and with
	// a persistent tier a repeated sweep costs zero simulations. The trial
	// log is bit-identical to the serial path. Ignored for the psums
	// target, whose closed-form cost is cheaper than a farm round trip.
	Farm *Farm
}

func (o *TuneOptions) defaults() {
	if o.Tuner == "" {
		o.Tuner = TunerXGB
	}
	if o.Target == "" {
		o.Target = TargetPsums
	}
	if o.Trials == 0 {
		o.Trials = 600
	}
	if o.EarlyStopping == 0 {
		o.EarlyStopping = 120
	}
}

// TuneConvMapping searches the Table IV mapping space of a convolution on
// the given MAERI architecture and returns the best mapping found.
func TuneConvMapping(arch Architecture, d ConvDims, o TuneOptions) (ConvMapping, TuneResult, error) {
	o.defaults()
	if err := d.Resolve(); err != nil {
		return ConvMapping{}, TuneResult{}, err
	}
	space, err := autotune.ConvMappingSpace(d, arch.MSSize)
	if err != nil {
		return ConvMapping{}, TuneResult{}, err
	}
	var measure autotune.MeasureFunc
	topts := autotune.Options{Trials: o.Trials, EarlyStopping: o.EarlyStopping, Seed: o.Seed}
	if o.Target == TargetCycles {
		measure = autotune.ConvCycleCost(arch, d)
		if o.Farm != nil {
			topts.Measurer = autotune.FarmConvCycleMeasurer(o.Farm, arch, d)
		}
	} else {
		measure = autotune.ConvPsumCost(d, arch.MSSize)
	}
	res, err := tunerOf(o.Tuner).Tune(space, measure, topts)
	if err != nil {
		return ConvMapping{}, TuneResult{}, err
	}
	return autotune.ConvMappingOf(res.Best.Config), res, nil
}

// TuneFCMapping searches the Table V mapping space of a dense layer.
func TuneFCMapping(arch Architecture, batches, inNeurons, outNeurons int, o TuneOptions) (FCMapping, TuneResult, error) {
	o.defaults()
	space := autotune.FCMappingSpace(inNeurons, outNeurons, arch.MSSize)
	var measure autotune.MeasureFunc
	topts := autotune.Options{Trials: o.Trials, EarlyStopping: o.EarlyStopping, Seed: o.Seed}
	if o.Target == TargetCycles {
		measure = autotune.FCCycleCost(arch, batches, inNeurons, outNeurons)
		if o.Farm != nil {
			topts.Measurer = autotune.FarmFCCycleMeasurer(o.Farm, arch, batches, inNeurons, outNeurons)
		}
	} else {
		measure = autotune.FCPsumCost(batches, inNeurons, outNeurons, arch.MSSize)
	}
	res, err := tunerOf(o.Tuner).Tune(space, measure, topts)
	if err != nil {
		return FCMapping{}, TuneResult{}, err
	}
	return autotune.FCMappingOf(res.Best.Config), res, nil
}

// NewMRNAMapper returns the integrated specialised mapping tool for MAERI
// ("when these tools are available Bifrost has a mechanism to integrate and
// exploit them", §VII-D).
func NewMRNAMapper(arch Architecture) (*MRNAMapper, error) {
	return mrna.NewMapper(arch, mrna.MinimizeCycles)
}

// NewSpMSpMEngine returns a sparse×sparse matrix-multiplication engine
// (MAGMA class) — the paper's future-work operator on the SIGMA fabric —
// for a SIGMA_SPARSE_GEMM architecture.
func NewSpMSpMEngine(arch Architecture) (*magma.Engine, error) {
	return magma.NewEngine(arch)
}
