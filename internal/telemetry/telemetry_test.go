package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the Prometheus text exposition format: family
// ordering, HELP/TYPE lines, label rendering, cumulative histogram buckets
// and the _sum/_count series. Any format drift breaks real scrapers, so
// the expected output is compared verbatim.
func TestExpositionGolden(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("jobs_total", "Jobs submitted.", Label{"kind", "conv2d"})
	c.Add(3)
	reg.Counter("jobs_total", "Jobs submitted.", Label{"kind", "dense"}).Inc()
	g := reg.Gauge("queue_depth", "Jobs waiting.")
	g.Set(2.5)
	reg.GaugeFunc("workers", "Worker count.", func() float64 { return 4 })
	h := reg.Histogram("latency_seconds", "Job latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total Jobs submitted.
# TYPE jobs_total counter
jobs_total{kind="conv2d"} 3
jobs_total{kind="dense"} 1
# HELP latency_seconds Job latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 3
latency_seconds_bucket{le="10"} 3
latency_seconds_bucket{le="+Inf"} 4
latency_seconds_sum 101.05
latency_seconds_count 4
# HELP queue_depth Jobs waiting.
# TYPE queue_depth gauge
queue_depth 2.5
# HELP workers Worker count.
# TYPE workers gauge
workers 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteSamples pins the hand-rendered family format used for
// stats-snapshot-derived metrics.
func TestWriteSamples(t *testing.T) {
	var sb strings.Builder
	err := WriteSamples(&sb, "store_hits_total", "Tier hits.", "counter",
		Sample{Labels: []Label{{"tier", "memory"}}, Value: 7},
		Sample{Labels: []Label{{"tier", "disk"}}, Value: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := `# HELP store_hits_total Tier hits.
# TYPE store_hits_total counter
store_hits_total{tier="memory"} 7
store_hits_total{tier="disk"} 2
`
	if got := sb.String(); got != want {
		t.Errorf("samples drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketBoundaries pins the le contract: a value exactly on a
// bound counts in that bound's bucket (v <= bound), the next representable
// value above it in the next bucket, and values beyond the last bound in
// +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	h := newHistogram(bounds)
	h.Observe(0.001)                    // exactly on bound 0 → bucket 0
	h.Observe(math.Nextafter(0.001, 1)) // just above → bucket 1
	h.Observe(0.01)                     // on bound 1 → bucket 1
	h.Observe(0.1)                      // on bound 2 → bucket 2
	h.Observe(math.Nextafter(0.1, 1))   // just above last bound → +Inf
	h.Observe(0)                        // below everything → bucket 0
	h.Observe(math.Inf(1))              // +Inf value → +Inf bucket
	wantCounts := []uint64{2, 2, 1, 2}  // per-bucket, non-cumulative
	snap := h.Snapshot()
	for i, want := range wantCounts {
		if snap.Counts[i] != want {
			t.Errorf("bucket %d: count %d, want %d (all: %v)", i, snap.Counts[i], want, snap.Counts)
		}
	}
	if snap.Count != 7 {
		t.Errorf("count = %d, want 7", snap.Count)
	}
}

// TestHistogramQuantile checks the interpolated estimate on a known shape.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all mass in the first bucket
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q <= 0 || q > 1 {
		t.Errorf("p50 = %v, want within (0, 1]", q)
	}
	// Mass beyond the last bound clamps to the largest finite bound.
	h2 := newHistogram([]float64{1, 2, 4})
	h2.Observe(100)
	if q := h2.Snapshot().Quantile(0.99); q != 4 {
		t.Errorf("+Inf-bucket p99 = %v, want clamp to 4", q)
	}
	// Empty histogram.
	if q := newHistogram([]float64{1}).Snapshot().Quantile(0.9); q != 0 {
		t.Errorf("empty p90 = %v, want 0", q)
	}
}

// TestHistogramSummary checks the millisecond rollup.
func TestHistogramSummary(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.Observe(0.010)
	h.Observe(0.030)
	s := h.Summary()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if math.Abs(s.SumMS-40) > 1e-9 {
		t.Errorf("sum = %v ms, want 40", s.SumMS)
	}
	if math.Abs(s.MeanMS-20) > 1e-9 {
		t.Errorf("mean = %v ms, want 20", s.MeanMS)
	}
}

// TestRegistrationIdempotent checks that re-registering a series returns
// the same metric, which is what lets independent layers share handles by
// name alone.
func TestRegistrationIdempotent(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "X.", Label{"k", "v"})
	b := reg.Counter("x_total", "X.", Label{"k", "v"})
	if a != b {
		t.Error("same (name, labels) returned distinct counters")
	}
	if reg.Counter("x_total", "X.", Label{"k", "w"}) == a {
		t.Error("distinct labels returned the same counter")
	}
	h1 := reg.Histogram("h_seconds", "H.", []float64{1, 2})
	h2 := reg.Histogram("h_seconds", "H.", nil)
	if h1 != h2 {
		t.Error("histogram re-registration returned a distinct histogram")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "X.", Label{"k", "v"})
}

// TestConcurrentRecordAndScrape hammers every metric kind from many
// goroutines while scraping concurrently; run under -race this proves the
// record and exposition paths are data-race-free, and afterwards the
// totals must be exact (no lost updates).
func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "C.")
	g := reg.Gauge("g", "G.")
	h := reg.Histogram("h_seconds", "H.", nil)
	ph := NewPhaseHistograms(reg, "p_seconds", "P.")
	ring := NewTraceRing(64)

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := BeginSpan()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) * 1e-6)
				ph.Observe(Phase(i%int(NumPhases)), 1)
				if i%500 == 0 {
					ring.Add(s.Take("k", "compute"))
				}
			}
			EndSpan(s)
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			ring.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if got := g.Value(); got != workers*iters {
		t.Errorf("gauge = %v, want %d", got, workers*iters)
	}
	if got := h.Snapshot().Count; got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
}

// TestRecordPathAllocFree pins every hot-path record operation to zero
// allocations: these run per job (and per histogram observation inside the
// engines), so a single allocation here would undo the allocation-free
// steady state.
func TestRecordPathAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "C.")
	g := reg.Gauge("g", "G.")
	h := reg.Histogram("h_seconds", "H.", nil)
	ph := NewPhaseHistograms(reg, "p_seconds", "P.")

	if a := testing.AllocsPerRun(100, func() { c.Inc() }); a > 0 {
		t.Errorf("Counter.Inc allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { g.Set(1); g.Add(2) }); a > 0 {
		t.Errorf("Gauge Set/Add allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(3e-5) }); a > 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		s := BeginSpan()
		s.Observe(PhaseCompute, 42)
		s.Observe(PhasePersist, 7)
		ph.ObserveSpan(s)
		EndSpan(s)
	}); a > 0 {
		t.Errorf("span begin/observe/rollup/end allocates %.1f/op", a)
	}
}

// TestTraceRing checks bounded eviction, newest-first order and the
// monotone total.
func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot has %d entries", len(got))
	}
	for i := 1; i <= 5; i++ {
		r.Add(&Trace{Key: string(rune('a' + i - 1))})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	if snap[0].Key != "e" || snap[1].Key != "d" || snap[2].Key != "c" {
		t.Errorf("ring order = %q,%q,%q, want e,d,c", snap[0].Key, snap[1].Key, snap[2].Key)
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
	var nilRing *TraceRing
	nilRing.Add(&Trace{}) // nil receivers are no-ops
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 {
		t.Error("nil ring is not inert")
	}
}

// TestSpanTake checks the trace materialisation, including zero-phase
// omission via the accumulated durations.
func TestSpanTake(t *testing.T) {
	s := BeginSpan()
	s.Observe(PhaseCompute, 2e6) // 2ms
	s.Observe(PhasePersist, 5e5) // 0.5ms
	s.Observe(PhasePersist, 5e5) // accumulates → 1ms
	tr := s.Take("key123", "compute")
	EndSpan(s)
	if tr.Key != "key123" || tr.Source != "compute" {
		t.Errorf("identity fields: %+v", tr)
	}
	if tr.ComputeMS != 2 || tr.PersistMS != 1 {
		t.Errorf("phase durations: compute %v persist %v, want 2 and 1", tr.ComputeMS, tr.PersistMS)
	}
	if tr.EnqueueWaitMS != 0 || tr.DiskLookupMS != 0 {
		t.Errorf("untouched phases non-zero: %+v", tr)
	}
	if tr.TotalMS < 0 {
		t.Errorf("total %v < 0", tr.TotalMS)
	}
}

// TestRatio pins the guarded division.
func TestRatio(t *testing.T) {
	if r := Ratio(0, 0); r != 0 {
		t.Errorf("Ratio(0,0) = %v", r)
	}
	if r := Ratio(3, 1); r != 0.75 {
		t.Errorf("Ratio(3,1) = %v", r)
	}
}
