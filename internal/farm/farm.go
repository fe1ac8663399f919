// Package farm is the concurrent simulation farm: a worker-pool scheduler
// that runs job.Jobs across GOMAXPROCS workers, fronted by a
// content-addressed result cache so identical simulations are never run
// twice. Every layer Bifrost offloads spins up a fresh STONNE instance (§V
// step 3 of the paper) and the AutoTVM-style tuners re-simulate thousands
// of near-identical (architecture, layer, mapping) points — the farm
// deduplicates and parallelises both, and backs the bifrost-serve batch
// service. The unit of work, its key and its inline Run live in
// internal/job; farm adds the scheduler, the result codec,
// the memory and disk tiers, the retry breakers, the placement ring,
// replication and the sweep journal. *Farm is a job.Runner.
package farm

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The unit of work lives in internal/job; these aliases keep the farm's
// callers (serve, farmtest, the benchmark harness) spelling it farm.Job.
type (
	Job        = job.Job
	Result     = job.Result
	PanicError = job.PanicError
)

const (
	Conv2D     = job.Conv2D
	Dense      = job.Dense
	KeyVersion = job.KeyVersion
)

// Run executes a job inline, without a farm; see job.Run.
func Run(j Job) (Result, error) { return job.Run(j) }

var _ job.Runner = (*Farm)(nil)

// Sentinel errors the scheduler returns for submissions it will not run.
// Both are matched with errors.Is: the farm may wrap them with context.
var (
	// ErrFarmClosed fails submissions made after Close or Shutdown, and
	// releases waiters whose queued jobs were abandoned by a timed-out
	// Shutdown.
	ErrFarmClosed = errors.New("farm: closed")

	// ErrQueueFull fails submissions fast when the queue is at its
	// WithMaxQueue bound — the farm's backpressure signal. The job was not
	// enqueued; the caller should retry later or shed the work.
	ErrQueueFull = errors.New("farm: submit queue full")
)

// phaseSeconds is the process-wide per-phase latency histogram family every
// farm rolls its job spans into: one histogram per lifecycle phase
// (enqueue wait, single-flight dedup, memory lookup, disk lookup, compute,
// persist), registered on the default telemetry registry so the /metrics
// endpoint exposes them. Observation is lock-free and allocation-free, so
// it is always on.
var phaseSeconds = telemetry.NewPhaseHistograms(telemetry.Default(),
	"bifrost_farm_phase_seconds",
	"Per-phase job lifecycle latency through the simulation farm.")

// PhaseSummaries returns the process-wide per-phase latency rollups keyed
// by phase name, for the serve layer's /stats endpoint.
func PhaseSummaries() map[string]telemetry.HistogramSummary { return phaseSeconds.Summaries() }

// Farm is the concurrent simulation farm: a fixed pool of workers draining
// a FIFO job queue, fronted by a content-addressed two-tier result cache
// with single-flight deduplication — concurrent submissions of the same job
// share one execution, and repeated submissions are served from the cache
// without simulating at all.
//
// The memory tier (bounded with WithMaxEntries / WithMaxBytes) is consulted
// synchronously on submission; the optional persistent tier (WithDiskStore)
// is probed by the worker that picks the job up, before it simulates, so a
// warm disk directory lets a cold process answer every repeated job with
// zero simulator executions. With a disk tier a computed result is written
// to disk only, and memory admits it when a disk hit promotes it: most
// results are never read again. Single-flight semantics span both tiers:
// concurrent identical submissions share one disk probe and at most one
// execution.
//
// A Farm is safe for concurrent use by any number of goroutines and is
// typically shared: sessions, tuners and the bifrost-serve service can all
// point at one farm so their identical simulations coalesce.
type Farm struct {
	workers    int
	maxEntries int
	maxBytes   int64
	maxQueue   int

	qmu   sync.Mutex
	qcond *sync.Cond
	// qspace wakes DoBatch submissions blocked on a full bounded queue; it is
	// signalled whenever a queue slot frees (dequeue, cancellation removal,
	// shutdown abandonment) and broadcast on close.
	qspace *sync.Cond
	queue  []*call
	closed bool
	wg     sync.WaitGroup

	// tiersOnce makes tier teardown idempotent across Close and Shutdown.
	tiersOnce sync.Once

	cmu  sync.Mutex
	mem  *MemoryStore
	disk Store
	// local is the disk tier's node-local view, resolved once in New: the
	// tier itself, or a ReplicatedStore's own local tier — so Limits and a
	// replica written over the peer wire protocol never reach past this
	// node's storage. nil without local storage.
	local LocalTier
	// repl is the disk tier when it is a ReplicatedStore: a fresh result is
	// persisted through it by its job's placement (Job.Placement), the same
	// ring input a coordinator routes the job by.
	repl *ReplicatedStore
	// put is the disk tier's error-surfacing write, resolved once in New; a
	// computed result goes to memory only when it fails (see persist).
	put      FallibleStore
	inflight map[string]*call

	pack    *tensor.PackCache
	packSet bool

	// ring, when set, receives the lifecycle trace of every job a worker
	// executes (and of traced cache hits) for the /debug/traces endpoint.
	ring *telemetry.TraceRing

	// busy counts workers currently inside exec — the utilisation gauge.
	busy atomic.Int64

	// statsMu makes multi-counter transitions atomic with respect to Stats
	// snapshots: counter updates that must be observed together take the
	// read side (shared, so the hot path never serialises on it), Stats
	// takes the write side and therefore never observes a half-applied
	// transition.
	statsMu sync.RWMutex

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	deduped   atomic.Int64
	pending   atomic.Int64
	diskHits  atomic.Int64
	panics    atomic.Int64
	cancelled atomic.Int64
	rejected  atomic.Int64
}

// Option configures a Farm at construction time.
type Option func(*Farm)

// WithMaxEntries bounds the in-memory result tier to n entries, evicted in
// LRU order; n <= 0 (the default) sets no entry bound, and the tier's byte
// bound (WithMaxBytes) still holds.
func WithMaxEntries(n int) Option { return func(f *Farm) { f.maxEntries = n } }

// DefaultMemMaxBytes is the in-memory result tier's byte bound when
// WithMaxBytes sets none, equal to the pack cache's default
// (tensor.DefaultPackCacheBytes). A small sweep's row costs about 8–11 KB
// of memory, so the bound holds tens of thousands of results, where an
// unbounded tier grew by a row's worth per row until the process was
// killed. Entries evicted from memory stay on the disk tier, when there
// is one.
const DefaultMemMaxBytes = 256 << 20

// WithMaxBytes bounds the in-memory result tier to roughly b resident
// bytes of cached results, evicted in LRU order; b <= 0 (the default)
// selects DefaultMemMaxBytes. An output several entries share is charged
// to every one of them, so the bound counts what the entries would hold
// unshared: which results fit never depends on which outputs happen to be
// equal, and the tier's resident bytes only fall below it.
func WithMaxBytes(b int64) Option { return func(f *Farm) { f.maxBytes = b } }

// WithMaxQueue bounds the job queue to n waiting jobs; when full, Do and
// DoCtx fail fast with ErrQueueFull instead of accepting work the farm
// cannot serve, while DoBatch blocks until a slot frees. n <= 0 (the
// default) leaves the queue unbounded. Cache hits and single-flight
// attaches never consume queue slots, so a warm sweep is unaffected by the
// bound.
func WithMaxQueue(n int) Option { return func(f *Farm) { f.maxQueue = n } }

// WithDiskStore attaches a persistent tier — typically a *DiskStore —
// probed on memory misses before a job is simulated and written with every
// fresh result, which then skips the memory tier unless the write fails.
// The store is closed with the farm.
func WithDiskStore(s Store) Option { return func(f *Farm) { f.disk = s } }

// WithPackCache replaces the farm's shared content-keyed pack cache —
// packed weight panels, kernel matrices and layout transposes reused
// across jobs with identical operands. nil disables pack reuse entirely.
// Pack reuse changes where derived bytes come from, never what they are:
// results and cache keys are byte-identical with any setting, so the cache
// (like Job.ExecWorkers) does not participate in Key().
func WithPackCache(pc *tensor.PackCache) Option {
	return func(f *Farm) { f.pack, f.packSet = pc, true }
}

// WithTraceRing attaches a bounded ring of recent job traces: every job a
// worker executes (disk hit, fresh compute or failure) records its
// lifecycle trace there, as do cache-hit submissions that explicitly asked
// for tracing (Job.Trace). Memory hits without the flag stay traceless so
// the warm steady state allocates nothing. nil (the default) disables
// trace retention; per-phase histograms are recorded either way.
func WithTraceRing(r *telemetry.TraceRing) Option {
	return func(f *Farm) { f.ring = r }
}

// call is one in-flight execution, shared by every waiter that submitted an
// identical job while it was queued or running.
type call struct {
	job Job
	key string
	// place is the job's Placement, derived with its key at submission:
	// the ring input a ReplicatedStore persists the result by.
	place string
	done  chan struct{}
	res   Result
	err   error

	// span accumulates the job's per-phase timings from submission until
	// the worker finishes it; pooled, so the always-on tracing machinery
	// adds no steady-state allocations.
	span *telemetry.Span
	// enqueuedAt stamps the queue append; the dequeuing worker turns it
	// into the enqueue-wait phase.
	enqueuedAt time.Time
	// traced records whether any submission of this call asked for a
	// trace in the result; deduped waiters set it concurrently with the
	// executing worker reading it at finish, hence atomic.
	traced atomic.Bool

	// waiters counts the submissions waiting on this call. A waiter
	// releases its reference when its context fires (a Do or DoBatch
	// waiter never does). When the count reaches zero the call is
	// cancelled: pulled out of the queue (if still there) and failed with
	// context.Canceled, so abandoned work never occupies a worker. The
	// call has no deadline of its own: a deadline is one waiter's context,
	// so it can only ever drop that waiter. Attach (under Farm.cmu) and the
	// zero-check in detach (also under cmu) serialise, so a cancel never
	// races a fresh attach.
	waiters atomic.Int64
	// cancelled marks a call whose last waiter detached; a worker that
	// dequeues it reaps it instead of executing.
	cancelled atomic.Bool
}

// New returns a running farm with the given number of workers; workers <= 0
// selects GOMAXPROCS. With no options the cache is a single in-memory tier
// bounded by DefaultMemMaxBytes.
func New(workers int, opts ...Option) *Farm {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := &Farm{
		workers:  workers,
		inflight: make(map[string]*call),
	}
	for _, opt := range opts {
		opt(f)
	}
	if f.maxBytes <= 0 {
		f.maxBytes = DefaultMemMaxBytes
	}
	f.mem = NewMemoryStore(f.maxEntries, f.maxBytes)
	if repl, ok := f.disk.(*ReplicatedStore); ok {
		f.repl, f.local = repl, repl.local
	} else if f.disk != nil {
		f.local, f.put = asLocalTier(f.disk), asFallible(f.disk)
	}
	if !f.packSet {
		f.pack = tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes)
	}
	f.qcond = sync.NewCond(&f.qmu)
	f.qspace = sync.NewCond(&f.qmu)
	f.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go f.worker()
	}
	return f
}

// Workers returns the worker-pool size.
func (f *Farm) Workers() int { return f.workers }

// PackCache returns the farm's shared content-keyed pack cache (nil when
// disabled with WithPackCache(nil)).
func (f *Farm) PackCache() *tensor.PackCache { return f.pack }

// Ring returns the farm's recent-trace ring (nil unless WithTraceRing).
func (f *Farm) Ring() *telemetry.TraceRing { return f.ring }

// Close stops accepting jobs, waits for queued and running jobs to finish,
// releases the workers and closes the cache tiers. Results persisted to a
// disk tier remain on disk: a new farm opened on the same directory serves
// them without re-simulating. Close is Shutdown without a deadline: it is
// idempotent, a concurrent Close joins the drain rather than skipping it,
// and submitting after it fails with ErrFarmClosed. For a drain bounded by
// a deadline, use Shutdown.
func (f *Farm) Close() { f.Shutdown(context.Background()) }

// Shutdown is the graceful drain: it stops accepting jobs, lets the workers
// finish everything already queued or running, then releases them and
// closes the cache tiers — a clean stop that loses no accepted work. If ctx
// fires first, the jobs still waiting in the queue are abandoned (their
// waiters are released with ErrFarmClosed), executions already on a
// worker run to completion (simulations cannot be interrupted), and ctx's
// error is returned to report the unclean drain. Shutdown is idempotent and
// composes with Close in either order.
func (f *Farm) Shutdown(ctx context.Context) error {
	f.qmu.Lock()
	f.closed = true
	f.qcond.Broadcast()
	f.qspace.Broadcast()
	f.qmu.Unlock()

	drained := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		// Deadline passed: pull the remaining queue out from under the
		// workers so each stops after its current job, and release every
		// waiter still parked on an abandoned call.
		f.qmu.Lock()
		abandoned := f.queue
		f.queue = nil
		f.qcond.Broadcast()
		f.qspace.Broadcast()
		f.qmu.Unlock()
		for _, c := range abandoned {
			f.reap(c, fmt.Errorf("shutdown deadline passed: %w", ErrFarmClosed))
		}
		<-drained
	}
	f.closeTiers()
	return err
}

// closeTiers closes the cache tiers exactly once across any interleaving of
// Close and Shutdown calls.
func (f *Farm) closeTiers() {
	f.tiersOnce.Do(func() {
		f.mem.Close()
		if f.disk != nil {
			f.disk.Close()
		}
	})
}

func (f *Farm) worker() {
	defer f.wg.Done()
	for {
		f.qmu.Lock()
		for len(f.queue) == 0 && !f.closed {
			f.qcond.Wait()
		}
		if len(f.queue) == 0 && f.closed {
			f.qmu.Unlock()
			return
		}
		c := f.queue[0]
		f.queue = f.queue[1:]
		f.qspace.Signal()
		f.qmu.Unlock()
		if c.cancelled.Load() {
			// Every waiter detached while the job was queued; the cancel
			// path did not find it in the queue in time, so reap it here.
			f.reap(c, context.Canceled)
		} else {
			f.exec(c)
		}
	}
}

// reap fails a call without executing it — every waiter gone, or an
// abandoned shutdown queue — releasing every waiter still blocked on it.
// Exactly one goroutine reaps a given call: removal from the queue (or the
// decision not to execute after dequeue) is the exclusive hand-off.
func (f *Farm) reap(c *call, err error) {
	f.cmu.Lock()
	if f.inflight[c.key] == c {
		delete(f.inflight, c.key)
	}
	f.cmu.Unlock()
	c.err = err
	f.finishSpan(c, "cancelled")
	f.statsMu.RLock()
	f.cancelled.Add(1)
	f.pending.Add(-1)
	f.statsMu.RUnlock()
	close(c.done)
}

// detach drops one waiter's reference to a call. When the last waiter
// leaves, the call is cancelled and — if it is still waiting in the queue —
// reaped immediately, so a disconnected client's jobs stop consuming
// workers before one ever picks them up. A call already being executed
// simply runs to completion (simulations cannot be interrupted); its result
// lands in the cache for whoever asks next.
func (f *Farm) detach(c *call) {
	if c.waiters.Add(-1) != 0 {
		return
	}
	f.cmu.Lock()
	if c.waiters.Load() != 0 {
		// A concurrent identical submission re-attached before the cancel
		// could be made definitive; the call stays live.
		f.cmu.Unlock()
		return
	}
	c.cancelled.Store(true)
	if f.inflight[c.key] == c {
		delete(f.inflight, c.key)
	}
	f.cmu.Unlock()

	f.qmu.Lock()
	removed := false
	for i, qc := range f.queue {
		if qc == c {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			removed = true
			f.qspace.Signal()
			break
		}
	}
	f.qmu.Unlock()
	if removed {
		f.reap(c, context.Canceled)
	}
	// Not in the queue: a worker already holds it and will either see the
	// cancelled flag at dispatch and reap it, or is mid-execution and will
	// finish normally.
}

// exec runs one call, publishes its result to the cache tiers and wakes
// every waiter. The persistent tier is probed first: a disk hit is promoted
// into the memory tier and served without simulating (and without counting
// a miss), which is what lets a cold process replay a warm cache with zero
// executions. Because exec runs once per key (single flight), the disk
// probe is deduplicated exactly like the execution it replaces.
func (f *Farm) exec(c *call) {
	// busy drops before each close(c.done) below, never in a defer: a caller
	// released by Do must not observe this worker still busy.
	f.busy.Add(1)
	c.span.Observe(telemetry.PhaseEnqueueWait, time.Since(c.enqueuedAt))
	if f.disk != nil {
		t := time.Now()
		res, ok := f.disk.Get(c.key)
		c.span.Observe(telemetry.PhaseDiskLookup, time.Since(t))
		if ok {
			t = time.Now()
			f.cmu.Lock()
			if f.inflight[c.key] == c {
				delete(f.inflight, c.key)
			}
			f.mem.Put(c.key, res)
			f.cmu.Unlock()
			c.span.Observe(telemetry.PhasePersist, time.Since(t))
			res.Hit = true
			c.res = res
			f.finishSpan(c, "disk")
			f.statsMu.RLock()
			f.hits.Add(1)
			f.diskHits.Add(1)
			f.pending.Add(-1)
			f.statsMu.RUnlock()
			f.busy.Add(-1)
			close(c.done)
			return
		}
	}
	f.count(&f.misses)
	t := time.Now()
	// Both tiers missed: only now does Run generate a named job's operands,
	// so their cost is observed under the compute phase. The farm's shared
	// pack cache is not keyed, so results stay bit-identical.
	c.res, c.err = job.Run(c.job.WithPackCache(f.pack))
	c.span.Observe(telemetry.PhaseCompute, time.Since(t))
	t = time.Now()
	if c.err == nil && f.persist(c) != nil {
		// A pooled output would pin its bucket's rounded-up capacity for
		// the life of the cache entry. An output equal to one the memory
		// tier already holds is swapped for that tensor, so the copy just
		// computed is garbage once the waiters have cloned it. The put
		// hashes the output, so it stays outside cmu: it only has to land
		// before the in-flight entry goes, which it does in program order.
		c.res.Out = c.res.Out.Compact()
		c.res.Out = f.mem.PutShared(c.key, c.res)
	}
	// The in-flight entry outlives the persist: an identical submission that
	// arrives while the result is between tiers — already evicted from a
	// tight memory tier, not yet on disk — attaches to this call instead of
	// simulating again. (The quicker a resubmission is keyed, the likelier
	// it lands in that window.)
	f.cmu.Lock()
	if f.inflight[c.key] == c {
		delete(f.inflight, c.key)
	}
	f.cmu.Unlock()
	if c.err == nil {
		c.span.Observe(telemetry.PhasePersist, time.Since(t))
		f.finishSpan(c, "compute")
		f.statsMu.RLock()
		f.completed.Add(1)
		f.pending.Add(-1)
		f.statsMu.RUnlock()
	} else {
		// A recovered simulator panic fails this job only: the worker
		// survives, the sweep continues, and the panic is counted and
		// annotated so the poisoned mapping is diagnosable after the fact.
		var pe *PanicError
		isPanic := errors.As(c.err, &pe)
		source := "error"
		if isPanic {
			source = "panic"
		}
		f.finishSpan(c, source)
		f.statsMu.RLock()
		f.failed.Add(1)
		if isPanic {
			f.panics.Add(1)
		}
		f.pending.Add(-1)
		f.statsMu.RUnlock()
	}
	f.busy.Add(-1)
	close(c.done)
}

// persist writes a computed result to the disk tier only: most rows are
// never read again, and a disk hit promotes the ones that are into memory.
// It returns the local write's error — errNoDiskTier without a disk tier —
// and exec then admits the result to memory, so a quarantined or failing
// disk still serves it from there.
func (f *Farm) persist(c *call) error {
	switch {
	case f.repl != nil:
		return f.repl.put(c.place, c.key, c.res)
	case f.put != nil:
		return f.put.PutErr(c.key, c.res)
	}
	return errNoDiskTier
}

// errNoDiskTier is persist's answer for a node with no local tier.
var errNoDiskTier = errors.New("farm: no disk tier")

// finishSpan rolls the call's span into the per-phase histograms, echoes a
// trace when anyone asked for one (the job's Trace flag, a deduped traced
// waiter, or the farm's trace ring) and returns the span to its pool. Must
// run before the call's done channel closes so waiters observe the trace.
func (f *Farm) finishSpan(c *call, source string) {
	phaseSeconds.ObserveSpan(c.span)
	if f.ring != nil || c.traced.Load() {
		tr := c.span.Take(c.key, source)
		if c.err != nil {
			tr.Error = c.err.Error()
		}
		c.res.Trace = tr
		f.ring.Add(tr)
	}
	telemetry.EndSpan(c.span)
	c.span = nil
}

// resolve shapes a submission's answer for its caller: the job's key filled
// in and the output tensor the caller's own copy.
func resolve(key string, res Result, err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	res.Key = key
	if res.Out != nil {
		res.Out = res.Out.Clone()
	}
	return res, nil
}

// wait blocks until c finishes or ctx fires. A fired context returns ctx's
// error and detaches this waiter only: when it was the call's last waiter,
// a still-queued job leaves the queue before any worker picks it up; an
// execution already on a worker runs on, and its result lands in the cache.
func (f *Farm) wait(ctx context.Context, c *call) (Result, error) {
	select {
	case <-c.done:
		return resolve(c.key, c.res, c.err)
	case <-ctx.Done():
		f.detach(c)
		return Result{}, ctx.Err()
	}
}

// memHit counts a submission served by the memory tier: the hit counter,
// the memory-lookup phase histogram, and — only when the job asked for a
// trace — a materialised Trace echoed in the result and recorded in the
// ring. Untraced warm hits allocate nothing.
func (f *Farm) memHit(j Job, key string, res Result, start time.Time, lookup time.Duration) Result {
	f.count(&f.hits)
	phaseSeconds.Observe(telemetry.PhaseMemLookup, lookup)
	res.Hit = true
	if j.Trace {
		tr := &telemetry.Trace{
			Key:         key,
			Source:      "memory",
			MemLookupMS: telemetry.MS(lookup),
			TotalMS:     telemetry.MS(time.Since(start)),
		}
		res.Trace = tr
		f.ring.Add(tr)
	}
	return res
}

// submit names a job (Job.Address: its key and placement from one pass
// over the spec, no operand built) and resolves it from the memory tier,
// attaches it to an identical queued or running call, or queues a new
// call. It returns the call to wait on, or a nil call when the submission
// resolved at once: a memory hit in res, or a job that could not be named
// in err. block selects the pace at a full WithMaxQueue bound: wait for a
// slot (DoBatch) or fail fast with ErrQueueFull (DoCtx). Cache hits and
// attaches never take a queue slot.
func (f *Farm) submit(j Job, block bool) (c *call, key string, res Result, err error) {
	f.count(&f.submitted)
	key, spec, err := j.Address()
	if err != nil {
		f.count(&f.failed)
		return nil, "", Result{}, err
	}
	start := time.Now()
	// Fast path outside the farm-global mutex: the memory tier has its own
	// lock, so submissions hitting a warm cache never serialise on cmu.
	if res, ok := f.mem.Get(key); ok {
		return nil, key, f.memHit(j, key, res, start, time.Since(start)), nil
	}
	memLookup := time.Since(start)
	dedupStart := time.Now()
	f.cmu.Lock()
	// Re-check under the lock: exec publishes to a cache tier before it
	// removes the in-flight entry (the removal under cmu), so a completion
	// that raced the optimistic miss above is visible in at least one of the
	// two checks here, or is on disk for the worker's probe.
	if res, ok := f.mem.Get(key); ok {
		f.cmu.Unlock()
		return nil, key, f.memHit(j, key, res, start, memLookup), nil
	}
	if c, ok := f.inflight[key]; ok {
		c.waiters.Add(1) // under cmu, so it cannot race the cancel decision in detach
		f.cmu.Unlock()
		f.count(&f.deduped)
		// The dedup phase of an attaching submission is its single-flight
		// bookkeeping cost; the shared execution's phases are recorded by
		// the call it attached to.
		phaseSeconds.Observe(telemetry.PhaseDedup, time.Since(dedupStart))
		if j.Trace {
			c.traced.Store(true)
		}
		return c, key, Result{}, nil
	}
	c = &call{job: j, key: key, place: hex.EncodeToString(spec[:]), done: make(chan struct{}), span: telemetry.BeginSpan()}
	c.waiters.Store(1)
	c.span.Observe(telemetry.PhaseMemLookup, memLookup)
	c.traced.Store(j.Trace)
	f.inflight[key] = c
	f.cmu.Unlock()
	c.span.Observe(telemetry.PhaseDedup, time.Since(dedupStart))

	f.qmu.Lock()
	if block {
		// Queue-paced submission: wait for a slot instead of rejecting. The
		// workers drain the queue independently of this goroutine, so the
		// wait always makes progress; a close releases every waiter.
		for !f.closed && f.maxQueue > 0 && len(f.queue) >= f.maxQueue {
			f.qspace.Wait()
		}
	}
	if f.closed || (f.maxQueue > 0 && len(f.queue) >= f.maxQueue) {
		rejected := !f.closed
		f.qmu.Unlock()
		f.cmu.Lock()
		if f.inflight[key] == c {
			delete(f.inflight, key)
		}
		f.cmu.Unlock()
		telemetry.EndSpan(c.span)
		c.span = nil
		// Complete the call rather than abandoning it: a concurrent
		// identical submission may already have attached to it as a waiter.
		if rejected {
			f.count(&f.rejected)
			c.err = fmt.Errorf("%w: %d jobs queued", ErrQueueFull, f.maxQueue)
		} else {
			f.count(&f.failed)
			c.err = fmt.Errorf("submit rejected: %w", ErrFarmClosed)
		}
		close(c.done)
		return c, key, Result{}, nil
	}
	f.count(&f.pending)
	c.enqueuedAt = time.Now()
	f.queue = append(f.queue, c)
	f.qcond.Signal()
	f.qmu.Unlock()
	return c, key, Result{}, nil
}

// CacheGet consults the farm's cache tiers without scheduling anything: the
// memory tier first, then the disk tier, promoting a disk hit into memory
// exactly like a worker would. It is the sweep journal's replay primitive: a
// lookup must never trigger a simulation. Unlike Do it does not clone: the
// returned output is the memory tier's own tensor, possibly shared by other
// keys, and is read-only — one write through it would corrupt every key
// that shares it.
func (f *Farm) CacheGet(key string) (Result, bool) {
	if res, ok := f.mem.Get(key); ok {
		return res, true
	}
	if f.disk == nil {
		return Result{}, false
	}
	res, ok := f.disk.Get(key)
	if ok {
		f.cmu.Lock()
		f.mem.Put(key, res)
		f.cmu.Unlock()
	}
	return res, ok
}

// cachePutLocal stores a replica PeerHandler received in this node's local
// tier only. A replica is read only after its owner dies, so it waits on
// disk, not in memory, and the failover that needs it promotes it like any
// disk hit. A node with no local tier keeps it in memory, the only tier it
// has. It never fans back out: that would cascade one logical write into N²
// replica writes.
func (f *Farm) cachePutLocal(key string, res Result) {
	if f.local != nil {
		f.local.Put(key, res)
		return
	}
	f.cmu.Lock()
	f.mem.Put(key, res)
	f.cmu.Unlock()
}

// Do submits a job and blocks until its result is ready: DoCtx with no
// deadline. A nil *Farm runs it inline, like a nil job.Runner: a session or
// measurer handed a farm variable that was never set still works.
func (f *Farm) Do(j Job) (Result, error) { return f.DoCtx(context.Background(), j) }

// DoCtx submits a job and blocks until its result is ready or ctx fires.
// A cache hit resolves at once, a job identical to one already queued or
// running attaches to that execution, and at the WithMaxQueue bound the
// submission fails fast with ErrQueueFull. ctx is the caller's deadline,
// not the shared job's: when it fires, DoCtx returns ctx's error and the
// job leaves the queue only if no other waiter still wants it (see wait).
// An already-cancelled ctx fails without touching the queue. A nil *Farm
// runs the job inline.
func (f *Farm) DoCtx(ctx context.Context, j Job) (Result, error) {
	if f == nil {
		return job.Run(j)
	}
	if err := ctx.Err(); err != nil {
		f.count(&f.submitted)
		f.count(&f.cancelled)
		return Result{}, err
	}
	c, key, res, err := f.submit(j, false)
	if c == nil {
		return resolve(key, res, err)
	}
	return f.wait(ctx, c)
}

// DoBatch submits every job, waits for all of them, and returns the results
// in submission order with each job's own error, so one failed job fails
// only its own entry (job.Runner).
//
// Submission runs at queue pace: with a WithMaxQueue bound configured,
// DoBatch blocks at the bound until a worker frees a slot instead of
// fast-failing the batch's tail with ErrQueueFull — the caller is already
// committed to waiting for the whole batch, so rejecting jobs it would
// happily wait for silently poisons sweeps. A batch of any size therefore
// completes with zero rejections on an otherwise idle farm; concurrent Do
// and DoCtx traffic still sheds fast at the bound. A nil *Farm runs the
// batch inline, as Do does.
func (f *Farm) DoBatch(jobs []Job) ([]Result, []error) {
	if f == nil {
		return job.DoBatch(nil, jobs)
	}
	results, errs := make([]Result, len(jobs)), make([]error, len(jobs))
	// A job resolved at submission goes straight into results; only the
	// calls still running are kept to wait on.
	calls := make([]*call, len(jobs))
	for i, j := range jobs {
		c, key, res, err := f.submit(j, true)
		if calls[i] = c; c == nil {
			results[i], errs[i] = resolve(key, res, err)
		}
	}
	for i, c := range calls {
		if c != nil {
			results[i], errs[i] = f.wait(context.Background(), c)
		}
	}
	return results, errs
}

// Stats is a snapshot of the farm's scheduler and cache counters.
type Stats struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// Submitted counts every job handed to Do/DoCtx/DoBatch.
	Submitted int64 `json:"submitted"`
	// Completed and Failed count finished executions (not cache hits).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// Panics is the subset of Failed caused by simulator panics the workers
	// recovered into per-job errors.
	Panics int64 `json:"panics"`
	// Cancelled counts jobs removed before execution, because the context
	// of every waiter fired (a deadline is one waiter's context, so a
	// shared job outlives it while another waiter remains) or a timed-out
	// Shutdown abandoned them, plus DoCtx calls made with a context that
	// had already fired.
	Cancelled int64 `json:"cancelled"`
	// Rejected counts submissions refused fast with ErrQueueFull because
	// the queue was at its WithMaxQueue bound.
	Rejected int64 `json:"rejected"`
	// Hits counts submissions served from either cache tier without a
	// simulator execution; DiskHits is the subset answered by the
	// persistent tier. Misses counts jobs that had to be simulated; Deduped
	// counts submissions that attached to an identical in-flight execution.
	Hits     int64 `json:"hits"`
	DiskHits int64 `json:"disk_hits"`
	Misses   int64 `json:"misses"`
	Deduped  int64 `json:"deduped"`
	// Pending is the number of jobs currently queued or running.
	Pending int64 `json:"pending"`
	// BusyWorkers is how many workers are executing a job right now, and
	// Queued how many jobs are waiting for a worker — the scheduler's
	// utilisation and queue-depth gauges.
	BusyWorkers int64 `json:"busy_workers"`
	Queued      int64 `json:"queued"`
	// CacheEntries is the number of distinct results held in memory.
	CacheEntries int `json:"cache_entries"`
	// Memory and Disk are the per-tier cache counters (hits, evictions,
	// bytes, corrupt entries dropped); Disk is nil without a disk tier.
	Memory StoreStats  `json:"memory"`
	Disk   *StoreStats `json:"disk,omitempty"`
	// Pack counts the shared pack cache's derived-operand reuse (all zero
	// when pack reuse is disabled).
	Pack tensor.PackStats `json:"pack"`
}

// HitRate returns the fraction of submissions that avoided a fresh
// simulation (cache hits plus single-flight attaches).
func (s Stats) HitRate() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Hits+s.Deduped) / float64(s.Submitted)
}

// count applies a single-counter increment inside a statsMu read-section,
// so Stats — which takes the write side — always observes a consistent cut
// of the counter history. Read-sections are shared: concurrent submissions
// never serialise on it.
func (f *Farm) count(c *atomic.Int64) {
	f.statsMu.RLock()
	c.Add(1)
	f.statsMu.RUnlock()
}

// Stats returns a consistent snapshot of the counters: multi-counter
// transitions (a job finishing decrements Pending and increments Completed,
// a disk hit bumps Hits and DiskHits together) are never observed
// half-applied, so invariants like
// Hits + Deduped + Completed + Failed + Pending <= Submitted and
// DiskHits <= Hits hold in every snapshot, under any concurrency.
func (f *Farm) Stats() Stats {
	mem := f.mem.Stats()
	f.qmu.Lock()
	queued := int64(len(f.queue))
	f.qmu.Unlock()
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	st := Stats{
		Workers:      f.workers,
		Submitted:    f.submitted.Load(),
		Completed:    f.completed.Load(),
		Failed:       f.failed.Load(),
		Panics:       f.panics.Load(),
		Cancelled:    f.cancelled.Load(),
		Rejected:     f.rejected.Load(),
		Hits:         f.hits.Load(),
		DiskHits:     f.diskHits.Load(),
		Misses:       f.misses.Load(),
		Deduped:      f.deduped.Load(),
		Pending:      f.pending.Load(),
		BusyWorkers:  f.busy.Load(),
		Queued:       queued,
		CacheEntries: int(mem.Entries),
		Memory:       mem,
	}
	if f.disk != nil {
		disk := f.disk.Stats()
		st.Disk = &disk
	}
	st.Pack = f.pack.Stats()
	return st
}

// Limits describes the farm's configured capacity bounds — the /version
// endpoint's "how is this server configured" answer.
type Limits struct {
	// Workers is the pool size.
	Workers int `json:"workers"`
	// MaxQueue bounds the job queue (0 = unbounded); at the bound, Do and
	// DoCtx fail fast with ErrQueueFull.
	MaxQueue int `json:"max_queue"`
	// MemMaxEntries and MemMaxBytes bound the in-memory result tier
	// (MemMaxEntries 0 = no entry bound; MemMaxBytes is always set).
	MemMaxEntries int   `json:"mem_max_entries"`
	MemMaxBytes   int64 `json:"mem_max_bytes"`
	// Disk reports whether a persistent tier is attached; DiskMaxBytes is
	// its byte bound (0 = unbounded) and DiskDir its directory, when the
	// tier can report them.
	Disk         bool   `json:"disk"`
	DiskMaxBytes int64  `json:"disk_max_bytes,omitempty"`
	DiskDir      string `json:"disk_dir,omitempty"`
}

// Limits returns the farm's configured bounds.
func (f *Farm) Limits() Limits {
	l := Limits{
		Workers:       f.workers,
		MaxQueue:      f.maxQueue,
		MemMaxEntries: f.maxEntries,
		MemMaxBytes:   f.maxBytes,
	}
	if f.disk != nil {
		l.Disk = true
		if f.local != nil {
			l.DiskMaxBytes = f.local.MaxBytes()
			l.DiskDir = f.local.Dir()
		}
	}
	return l
}
