package telemetry

import (
	"sync"
	"time"
)

// Phase is one stage of a job's lifecycle through the farm. The phases are
// ordered the way a cache-missing job experiences them: it waits in the
// queue, pays the single-flight bookkeeping, is looked up in the memory and
// disk tiers, computed, and persisted back into the tiers.
type Phase uint8

// Lifecycle phases.
const (
	PhaseEnqueueWait Phase = iota // queued, waiting for a worker
	PhaseDedup                    // single-flight lookup/attach bookkeeping
	PhaseMemLookup                // memory-tier probe
	PhaseDiskLookup               // disk-tier probe
	PhaseCompute                  // simulator execution
	PhasePersist                  // write-back into the cache tiers
	NumPhases
)

var phaseNames = [NumPhases]string{
	"enqueue_wait", "dedup", "mem_lookup", "disk_lookup", "compute", "persist",
}

// String returns the phase's snake_case name, used as the phase label value
// and the /stats summary key.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Span records one job's per-phase wall-clock durations. Spans are
// fixed-size structs recycled through a pool: Begin takes one from the pool
// zeroed, End returns it, and the record path (Observe) is allocation-free,
// which is what lets every farm job carry a span without disturbing the
// allocation-free steady state.
//
// A span is owned by a single job execution; Observe and Take are not safe
// for concurrent use on the same span.
type Span struct {
	start time.Time
	durs  [NumPhases]time.Duration
}

var spanPool = sync.Pool{New: func() any { return new(Span) }}

// BeginSpan takes a zeroed span from the pool, stamped with its start time.
func BeginSpan() *Span {
	s := spanPool.Get().(*Span)
	s.start = time.Now()
	for i := range s.durs {
		s.durs[i] = 0
	}
	return s
}

// EndSpan returns a span to the pool. The span must not be used afterwards.
func EndSpan(s *Span) {
	if s != nil {
		spanPool.Put(s)
	}
}

// Observe accumulates d into phase p (multiple observations add up: a
// persist that writes two tiers records both).
func (s *Span) Observe(p Phase, d time.Duration) {
	if s != nil && p < NumPhases {
		s.durs[p] += d
	}
}

// PhaseHistograms is one latency histogram per lifecycle phase, registered
// as a single family distinguished by the phase label. ObserveSpan rolls a
// finished span into them.
type PhaseHistograms struct {
	hists [NumPhases]*Histogram
}

// NewPhaseHistograms registers (or retrieves) the per-phase histogram
// family under name in reg.
func NewPhaseHistograms(reg *Registry, name, help string) *PhaseHistograms {
	ph := &PhaseHistograms{}
	for p := Phase(0); p < NumPhases; p++ {
		ph.hists[p] = reg.Histogram(name, help, nil, Label{Name: "phase", Value: p.String()})
	}
	return ph
}

// Observe records d into phase p's histogram.
func (ph *PhaseHistograms) Observe(p Phase, d time.Duration) {
	if ph != nil && p < NumPhases {
		ph.hists[p].Observe(d.Seconds())
	}
}

// ObserveSpan rolls every non-zero phase of s into the histograms.
func (ph *PhaseHistograms) ObserveSpan(s *Span) {
	if ph == nil || s == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		if d := s.durs[p]; d > 0 {
			ph.hists[p].Observe(d.Seconds())
		}
	}
}

// Summaries returns the per-phase rollups keyed by phase name, for the
// /stats endpoint.
func (ph *PhaseHistograms) Summaries() map[string]HistogramSummary {
	out := make(map[string]HistogramSummary, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		out[p.String()] = ph.hists[p].Summary()
	}
	return out
}

// Trace is the JSON echo of a finished span: where a job's wall-clock time
// went and which tier answered it. It is transport state — per submission,
// never cached or persisted — and is only materialised when a caller asks
// for it (the "trace": true request flag or slow-job logging), so the
// untraced hot path allocates nothing.
type Trace struct {
	// Key is the job's content-addressed cache key.
	Key string `json:"key,omitempty"`
	// Source says which path produced the result: "memory", "disk",
	// "compute", "dedup" (attached to an identical in-flight execution),
	// "error", "panic" (a simulator panic recovered into a per-job error)
	// or "cancelled" (removed from the queue by cancellation, deadline
	// expiry or shutdown before a worker executed it).
	Source string `json:"source"`
	// Error is the job's failure message, present only for failed, panicked
	// or cancelled submissions.
	Error string `json:"error,omitempty"`
	// Per-phase wall-clock durations in milliseconds; zero phases are
	// omitted (a memory hit has no compute phase).
	EnqueueWaitMS float64 `json:"enqueue_wait_ms,omitempty"`
	DedupMS       float64 `json:"dedup_ms,omitempty"`
	MemLookupMS   float64 `json:"mem_lookup_ms,omitempty"`
	DiskLookupMS  float64 `json:"disk_lookup_ms,omitempty"`
	ComputeMS     float64 `json:"compute_ms,omitempty"`
	PersistMS     float64 `json:"persist_ms,omitempty"`
	// TotalMS is the span's begin-to-finish wall clock, a superset of the
	// phase durations (scheduling gaps between phases count toward the
	// total only).
	TotalMS float64 `json:"total_ms"`
	// Peer and Remote describe a coordinator hop: Peer names the node the
	// job was dispatched to and Remote is the lifecycle trace that node
	// reported, so a remote job's response carries one trace per hop — the
	// coordinator's (dispatch overhead, wire time) wrapping the executing
	// node's (queue wait, lookups, compute). Both are empty for local jobs.
	Peer   string `json:"peer,omitempty"`
	Remote *Trace `json:"remote,omitempty"`
}

// MS converts a duration to float64 milliseconds, the unit every trace and
// summary field uses (float, so sub-millisecond analytic runs never
// truncate to 0).
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Take materialises the span into a freshly allocated Trace, stamped with
// the job key, result source and total wall-clock time since the span
// began. The span itself stays usable (and poolable) afterwards.
func (s *Span) Take(key, source string) *Trace {
	t := &Trace{
		Key:           key,
		Source:        source,
		EnqueueWaitMS: MS(s.durs[PhaseEnqueueWait]),
		DedupMS:       MS(s.durs[PhaseDedup]),
		MemLookupMS:   MS(s.durs[PhaseMemLookup]),
		DiskLookupMS:  MS(s.durs[PhaseDiskLookup]),
		ComputeMS:     MS(s.durs[PhaseCompute]),
		PersistMS:     MS(s.durs[PhasePersist]),
		TotalMS:       MS(time.Since(s.start)),
	}
	return t
}

// TraceRing is a bounded ring of recent traces for the /debug/traces
// endpoint: the last N traces the farm produced, newest first, with a
// monotone total so a poller can tell how many it missed.
type TraceRing struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total uint64
}

// NewTraceRing returns a ring keeping the most recent n traces (n < 1
// selects 1).
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{buf: make([]*Trace, n)}
}

// Add records a trace, evicting the oldest when full. Nil traces are
// ignored.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns how many traces were ever added.
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the buffered traces, newest first.
func (r *TraceRing) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Trace, 0, len(r.buf))
	for i := 0; i < len(r.buf); i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		if r.buf[idx] == nil {
			break
		}
		out = append(out, r.buf[idx])
	}
	return out
}
