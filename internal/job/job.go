// Package job is the simulator's unit of work: one offloaded layer run on
// one STONNE instance (§V step 3 of the paper), as a value. A Job carries
// everything its simulation needs; Run executes it inline on the production
// engines or, with Job.Reference, on the oracle package; and Key names it by
// content, so identical jobs share one cached result in any service built
// around it.
//
// Keyed fields — the ones that can change a result, and so enter Key and
// Placement — are HW (normalised), Kind, Layout, Dims, ConvMapping,
// FCMapping, M/K/N, DryRun, Seed and the operand contents. Fields that only
// choose how or when a result is computed are not keyed: ExecWorkers,
// Reference, Trace, Deadline, the pack cache (WithPackCache) and the fault
// hook (WithFaultHook). A lazy job (WithOperands) keys like its
// materialised form.
//
// Callers that run many jobs take a Runner: a nil Runner means Run inline,
// and the simulation farm (internal/farm) satisfies it with a scheduler and
// a result cache in front of the same Run.
package job

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/api"
	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/oracle"
	"repro/internal/stonne/stats"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Kind selects the simulated layer operator of a Job.
type Kind string

// Job kinds.
const (
	Conv2D Kind = "conv2d"
	Dense  Kind = "dense"
)

// Job is one layer simulation: a hardware configuration plus the layer
// geometry, dataflow mapping and operand tensors. Jobs are values — they
// carry everything needed to run the simulation, so identical jobs are
// interchangeable and their results cacheable under a content-addressed Key.
type Job struct {
	// HW is the accelerator configuration (normalised before execution and
	// hashing, so equivalent configurations share cache entries).
	HW config.HWConfig

	// Kind selects the operator: Conv2D or Dense.
	Kind Kind

	// Layout is the conv activation layout (tensor.NHWC or tensor.NCHW);
	// anything other than NHWC follows the NCHW path, mirroring the engine.
	Layout tensor.Layout

	// Dims is the convolution geometry (Kind == Conv2D).
	Dims tensor.ConvDims

	// ConvMapping is the MAERI conv tile configuration (Kind == Conv2D).
	ConvMapping mapping.ConvMapping

	// FCMapping is the MAERI dense tile configuration (Kind == Dense).
	FCMapping mapping.FCMapping

	// M, K, N give the dense geometry (batches, input neurons, output
	// neurons). Required for dry-run dense jobs; otherwise derived from the
	// operand tensors.
	M, K, N int

	// Input and Weights are the operand tensors, treated as immutable;
	// callers apply pruning before building the job (the key then covers
	// the pruned content together with HW.SparsityRatio).
	// Both are nil for dry-run jobs, and for a lazy job (WithOperands) until
	// Materialize generates them — which a farm does only when it must
	// hash a never-seen spec or actually simulate.
	Input, Weights *tensor.Tensor

	// Seed identifies operands generated from a PRNG seed by the caller
	// (e.g. the bifrost-serve service). It participates in the key, so two
	// jobs with equal tensors but different declared seeds never collide.
	Seed int64

	// DryRun executes a counters-only MAERI simulation (exact cycles, no
	// arithmetic) — the measurement mode of the AutoTVM cycles target. Dry
	// runs take the analytical fast path: closed-form per-tile-size-class
	// cost, bit-identical to the step-loop reference.
	DryRun bool

	// ExecWorkers caps the goroutines the exact arithmetic of a
	// GEMM-lowered convolution (SIGMA / TPU) splits over: 1 keeps it
	// serial, > 1 is an upper bound, and 0 or < 0 borrows whatever cores
	// are idle. Only a layer big enough to repay it is split, and only onto
	// idle cores (api.Options.Workers). Outputs and counters are bitwise
	// identical for every value (tensor.ConvGEMMImplicit never reorders
	// per-element accumulation), so ExecWorkers deliberately does NOT
	// participate in Key(): serial and parallel submissions share one cache
	// entry, on every tier.
	//
	// No production path sets it — sessions, tuners and the server leave it
	// 0 — and it stays only because the benchmark harness pins it; it goes
	// under ROADMAP item 1(c).
	ExecWorkers int

	// Reference runs the job on the oracle package — the step-loop / chunk-
	// loop / cycle-ticked reference simulations and, for GEMM-lowered
	// convolutions, the materialised im2col lowering — instead of the
	// production engines; run consults it once, and nothing below this
	// package knows the flag exists. Results are bitwise identical either
	// way — the engine equivalence suites, the FuzzEngineEquivalence target
	// and the farmtest differential harness enforce it — so Reference, like
	// ExecWorkers, deliberately does NOT participate in Key(): a warm cache
	// populated by engine runs serves reference submissions and vice versa.
	//
	// The bitwise guarantee assumes finite operand values. The fused
	// kernels compute products the reference's skip-zero loops never
	// materialise; for finite data those are ±0 no-ops, but a 0 paired
	// with an Inf/NaN operand would make them NaN. Operands containing
	// non-finite values are outside the farm's contract.
	Reference bool

	// Trace requests a per-submission lifecycle trace in the Result: where
	// the job's wall-clock time went (enqueue wait, single-flight dedup,
	// memory/disk lookup, compute, persist) and which tier answered it.
	// Tracing observes execution, never results — byte-identical outputs
	// and counters either way, enforced by the farmtest differential
	// harness — so Trace, like ExecWorkers and Reference, deliberately
	// does NOT participate in Key(): traced and untraced submissions share
	// cache entries on every tier.
	Trace bool

	// Deadline bounds how long the job may wait in the farm's queue: a job
	// still queued when its deadline passes is removed before any worker
	// picks it up and fails with context.DeadlineExceeded. Zero means no
	// deadline. A deadline can only prevent a result from being computed,
	// never change one, so Deadline — like ExecWorkers, Reference and Trace
	// — deliberately does NOT participate in Key(): a deadlined submission
	// that completes shares its cache entry with unbounded ones.
	Deadline time.Duration

	// pack is the shared content-keyed cache of derived operand forms the
	// fused engines may reuse (packed weight panels, kernel matrices,
	// layout transposes). The farm threads its own cache through here on
	// execution; WithPackCache sets it for inline Run calls. Like
	// ExecWorkers and Reference it cannot change results — only where
	// derived bytes come from — so it does NOT participate in Key().
	pack *tensor.PackCache

	// fault, when set, is invoked at the start of the simulator execution —
	// the fault-injection seam the chaos harnesses use to provoke panics and
	// stalls inside workers. It observes execution only: a
	// healthy job computes the same bytes with or without a hook, and like
	// pack it does NOT participate in Key().
	fault func()

	// operands, when set, makes the job lazy: Input and Weights are nil and
	// this generator produces them on demand (see WithOperands).
	operands func() (input, weights *tensor.Tensor)
}

// WithPackCache returns a copy of the job that will reuse derived operand
// forms from pc when executed inline with Run. Jobs submitted to a farm
// ignore this and use the farm's shared cache instead.
func (j Job) WithPackCache(pc *tensor.PackCache) Job {
	j.pack = pc
	return j
}

// WithFaultHook returns a copy of the job that calls fn when its simulator
// execution begins. It exists for fault-injection tests: a hook that panics
// exercises the farm's panic isolation, one that blocks holds a worker so
// queue behaviour (backpressure, cancellation, drain) can be driven
// deterministically. Production paths never set it.
func (j Job) WithFaultHook(fn func()) Job {
	j.fault = fn
	return j
}

// WithOperands returns a lazy copy of the job: it carries no operand
// tensors, and gen produces them the first time something needs their
// contents. gen must be a pure function of the job's other keyed fields —
// HW (including SparsityRatio), Kind, Layout, Dims or M/K/N, and Seed — and
// must already apply any pruning: a farm remembers the content key of every
// lazy spec it has hashed (farm.Farm.KeyOf), so two lazy jobs with equal specs
// are taken to have equal operands without generating either. In exchange a
// cache hit, a single-flight attach or a journal replay of a known spec
// never allocates an operand (a coordinator placement, Job.Placement, never
// needs the key at all); only a worker about to simulate, or the first hash
// of a new spec, calls gen. Jobs built from
// explicit tensors never set a generator and never consult that memory.
func (j Job) WithOperands(gen func() (input, weights *tensor.Tensor)) Job {
	j.Input, j.Weights, j.operands = nil, nil, gen
	return j
}

// Lazy reports whether the job still carries an operand generator
// (WithOperands) instead of operand tensors.
func (j Job) Lazy() bool { return j.operands != nil }

// Materialize returns the job with its operands in place: a lazy job's
// generator runs once and is dropped, any other job is returned unchanged.
func (j Job) Materialize() Job {
	if j.operands != nil {
		j.Input, j.Weights = j.operands()
		j.operands = nil
	}
	return j
}

// Result is what one executed job reports.
type Result struct {
	// Out is the layer output. Nil for dry-run jobs. Each caller receives
	// its own copy; mutating it does not poison the cache.
	Out *tensor.Tensor

	// Stats are the simulation counters.
	Stats stats.Stats

	// Hit reports whether the result was served from the content-addressed
	// cache instead of a fresh simulation.
	Hit bool

	// Key is the job's content-addressed cache key, filled in by the farm
	// (inline Run leaves it empty — no key is computed on that path).
	Key string

	// Trace is the job's lifecycle trace, filled in by the farm when the
	// job asked for one (Job.Trace) or the farm records recent traces
	// (WithTraceRing). Like Hit and Key it is per-submission transport
	// state: cache tiers store results without it and it is never
	// persisted to disk.
	Trace *telemetry.Trace
}

// PanicError is a simulator panic recovered into a per-job error: the
// panicking value plus the goroutine stack at the point of the panic. One
// poisoned (architecture, layer, mapping) point fails its own job with a
// *PanicError instead of taking down the process — and with it every other
// job of a sweep or every other client of a server.
type PanicError struct {
	// Value is the value the simulator panicked with.
	Value any
	// Stack is the goroutine stack captured inside the recovering deferral.
	Stack []byte
}

// Error implements error. The stack is included: a recovered panic is a
// simulator bug, and the trace is the only evidence left once the job's
// goroutine has moved on.
func (e *PanicError) Error() string {
	return fmt.Sprintf("job: simulator panic: %v\n%s", e.Value, e.Stack)
}

// Run executes the job inline on the calling goroutine, with no farm, no
// cache and no concurrency. Farm workers and a nil Runner both funnel
// through here, which is what keeps farmed and serial runs bit-identical.
// A simulator panic is recovered into a *PanicError, so a poisoned job
// fails alone whether it runs inline or on a farm worker.
func Run(j Job) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{}
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return run(j)
}

func run(j Job) (Result, error) {
	if j.fault != nil {
		j.fault()
	}
	cfg := j.HW.Normalize()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	d := j.Dims
	switch j.Kind {
	case Conv2D:
		if err := d.Resolve(); err != nil {
			return Result{}, err
		}
	case Dense:
		if j.DryRun && (j.M <= 0 || j.K <= 0 || j.N <= 0) {
			return Result{}, fmt.Errorf("job: dry-run dense job needs M, K, N geometry, got %d×%d→%d", j.M, j.K, j.N)
		}
	default:
		return Result{}, fmt.Errorf("job: unknown job kind %q", j.Kind)
	}
	if !j.DryRun {
		j = j.Materialize()
		if j.Input == nil || j.Weights == nil {
			return Result{}, fmt.Errorf("job: %s job needs input and weight tensors", j.Kind)
		}
	}
	// The one place a simulator is chosen: every caller that wants the
	// reference step loops — the differential harness, the engine benchmarks,
	// core.Session.Reference — gets them by setting the flag on a job.
	sim := runEngines
	if j.Reference {
		sim = runOracle
	}
	out, st, err := sim(cfg, j, d)
	if err != nil {
		return Result{}, err
	}
	return Result{Out: out, Stats: st}, nil
}

// runEngines executes a validated job on the production engines: analytic
// counters plus fused arithmetic.
func runEngines(cfg config.HWConfig, j Job, d tensor.ConvDims) (*tensor.Tensor, stats.Stats, error) {
	opt := api.Options{Workers: j.ExecWorkers, Pack: j.pack}
	switch {
	case j.DryRun:
		// Counters only: MAERI's, matching the AutoTVM cycle-cost measure
		// functions.
		eng, err := maeri.NewEngine(cfg)
		if err != nil {
			return nil, stats.Stats{}, err
		}
		eng.DryRun = true
		if j.Kind == Conv2D {
			return eng.Conv2D(nil, nil, d, j.ConvMapping)
		}
		st, err := eng.DenseStats(j.M, j.K, j.N, j.FCMapping)
		return nil, st, err
	case j.Kind == Dense:
		return api.DenseOpts(cfg, j.Input, j.Weights, j.FCMapping, opt)
	case j.Layout == tensor.NHWC:
		return api.Conv2DNHWCOpts(cfg, j.Input, j.Weights, d, j.ConvMapping, opt)
	default:
		return api.Conv2DNCHWOpts(cfg, j.Input, j.Weights, d, j.ConvMapping, opt)
	}
}

// runOracle executes a validated job on the reference simulator, which takes
// neither a worker count nor a pack cache.
func runOracle(cfg config.HWConfig, j Job, d tensor.ConvDims) (*tensor.Tensor, stats.Stats, error) {
	switch {
	case j.DryRun && j.Kind == Conv2D:
		st, err := oracle.ConvStats(cfg, d, j.ConvMapping)
		return nil, st, err
	case j.DryRun:
		st, err := oracle.DenseStats(cfg, j.M, j.K, j.N, j.FCMapping)
		return nil, st, err
	case j.Kind == Dense:
		return oracle.Dense(cfg, j.Input, j.Weights, j.FCMapping)
	case j.Layout == tensor.NHWC:
		return oracle.Conv2DNHWC(cfg, j.Input, j.Weights, d, j.ConvMapping)
	default:
		return oracle.Conv2DNCHW(cfg, j.Input, j.Weights, d, j.ConvMapping)
	}
}

// Runner runs jobs. *farm.Farm schedules, deduplicates and caches them; a
// nil Runner means Run inline (see Do and DoBatch). Either way the results
// are bit-identical, so a caller chooses a Runner for wall-clock time and
// cache reuse only.
type Runner interface {
	// Do runs one job and returns its result.
	Do(Job) (Result, error)
	// DoBatch runs every job and returns, index for index, each job's
	// result and its own error: one failed job fails only its own entry.
	DoBatch([]Job) ([]Result, []error)
}

// Do runs j on r, or inline with Run when r is nil.
func Do(r Runner, j Job) (Result, error) {
	if r == nil {
		return Run(j)
	}
	return r.Do(j)
}

// DoBatch runs jobs on r, or inline one after another when r is nil, with
// Runner.DoBatch's per-job results and errors.
func DoBatch(r Runner, jobs []Job) ([]Result, []error) {
	if r != nil {
		return r.DoBatch(jobs)
	}
	results, errs := make([]Result, len(jobs)), make([]error, len(jobs))
	for i, j := range jobs {
		results[i], errs[i] = Run(j)
	}
	return results, errs
}
