// Package telemetry is the dependency-free metrics layer behind the
// simulation stack's observability: fixed-bucket latency histograms with
// sharded atomic cells, Prometheus text exposition, and per-job lifecycle
// spans (span.go). Everything is stdlib-only and allocation-free on the
// record path — Observe never allocates and never takes a lock — so the
// farm's steady-state hot paths stay at ~0 allocs/op with telemetry enabled
// (pinned by allocs_test.go at the repo root).
//
// The Registry holds histograms only. Registration is idempotent:
// requesting an already registered (name, labels) series returns the
// existing histogram, so any layer that knows a series' name can obtain a
// handle to it without threading pointers through constructors — the farm
// registers its phase histograms once at package init, and the serve layer
// re-requests the same handles to build /stats summaries. Counts and
// gauges that another subsystem already tracks (the farm's Stats, the
// cache tiers) are rendered at scrape time through WriteSamples instead of
// being mirrored into registered state.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed name="value" pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// DefBuckets are the default latency bucket upper bounds in seconds,
// spanning the stack's full dynamic range: sub-microsecond analytic dry
// runs through multi-second reference simulations.
var DefBuckets = []float64{
	1e-6, 5e-6, 25e-6, 100e-6, 500e-6,
	2.5e-3, 10e-3, 50e-3, 250e-3, 1, 5, 30,
}

// histShards is the number of independently updated cells per bucket. A
// small power of two is enough: the goal is not perfect spread but keeping
// GOMAXPROCS workers from hammering one cache line.
const histShards = 8

// histShard is one shard's cells, padded so concurrent shards never share
// a cache line through the struct header.
type histShard struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
	buckets []atomic.Uint64
	_       [24]byte
}

// Histogram is a fixed-bucket latency histogram: cumulative-on-read bucket
// counts, a sum and a count, each split across histShards sharded atomic
// cells so concurrent Observe calls from many workers do not serialise on
// shared cache lines. Observe is lock-free and allocation-free.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds; +Inf implied
	shards [histShards]histShard
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not increasing: %v", bounds))
		}
	}
	h := &Histogram{bounds: b}
	for i := range h.shards {
		h.shards[i].buckets = make([]atomic.Uint64, len(b)+1)
	}
	return h
}

// Observe records one value (seconds, for latency histograms). A value v
// lands in the first bucket whose upper bound satisfies v <= bound — the
// Prometheus le (less-or-equal) contract — or the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	// Shard selection uses the runtime's per-thread fast random source:
	// no lock, no allocation, and adjacent observations from different
	// workers overwhelmingly land on different cells.
	s := &h.shards[rand.Uint32()&(histShards-1)]
	s.buckets[idx].Add(1)
	s.count.Add(1)
	for {
		old := s.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
}

// HistogramSnapshot is an aggregated point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in seconds; Counts[i] is the
	// number of observations <= Bounds[i] exclusive of earlier buckets
	// (non-cumulative), with Counts[len(Bounds)] the +Inf bucket.
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot aggregates the shards. Concurrent Observe calls may be torn
// across cells (a count landing without its sum yet), which is the usual
// and accepted scrape-time race for lock-free histograms.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)+1),
	}
	for i := range h.shards {
		s := &h.shards[i]
		for j := range snap.Counts {
			snap.Counts[j] += s.buckets[j].Load()
		}
		snap.Count += s.count.Load()
		snap.Sum += math.Float64frombits(s.sumBits.Load())
	}
	return snap
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket holding the target rank, the same estimate Prometheus'
// histogram_quantile computes. Returns 0 for an empty histogram; ranks in
// the +Inf bucket clamp to the largest finite bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(s.Bounds) { // +Inf bucket: clamp
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// HistogramSummary is the JSON-friendly rollup the /stats endpoint serves:
// count, totals and estimated quantiles, all in milliseconds.
type HistogramSummary struct {
	Count  uint64  `json:"count"`
	SumMS  float64 `json:"sum_ms"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// Summary aggregates the histogram into a HistogramSummary.
func (h *Histogram) Summary() HistogramSummary {
	snap := h.Snapshot()
	sum := HistogramSummary{
		Count: snap.Count,
		SumMS: snap.Sum * 1e3,
		P50MS: snap.Quantile(0.50) * 1e3,
		P90MS: snap.Quantile(0.90) * 1e3,
		P99MS: snap.Quantile(0.99) * 1e3,
	}
	if snap.Count > 0 {
		sum.MeanMS = sum.SumMS / float64(snap.Count)
	}
	return sum
}

// metric is one registered histogram series.
type metric struct {
	name   string
	help   string
	labels []Label
	lstr   string // canonical rendered label set, e.g. {phase="compute"}
	hist   *Histogram
}

// Registry holds registered histograms and renders them in Prometheus text
// exposition format. The zero value is not usable; use NewRegistry or the
// process-wide Default registry.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric // name + canonical labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every layer registers into and
// the /metrics endpoint exposes.
func Default() *Registry { return defaultRegistry }

// labelString renders a label set canonically (given order, quoted values).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Histogram registers (or retrieves) a histogram series with the given
// bucket upper bounds (nil selects DefBuckets). Registration is idempotent:
// an already registered (name, labels) series is returned as is, and the
// first registration fixes the bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	lstr := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[name+lstr]; ok {
		return m.hist
	}
	m := &metric{name: name, help: help, labels: append([]Label(nil), labels...), lstr: lstr, hist: newHistogram(bounds)}
	r.byKey[name+lstr] = m
	r.metrics = append(r.metrics, m)
	return m.hist
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered histogram in Prometheus text
// exposition format (version 0.0.4): families sorted by name, HELP/TYPE
// emitted once per family, series sorted by label set, each expanded into
// cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].lstr < ms[j].lstr
	})

	var sb strings.Builder
	prevFamily := ""
	for _, m := range ms {
		if m.name != prevFamily {
			fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s histogram\n", m.name, m.help, m.name)
			prevFamily = m.name
		}
		writeHistogram(&sb, m)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeHistogram expands one histogram series into its exposition lines.
func writeHistogram(sb *strings.Builder, m *metric) {
	snap := m.hist.Snapshot()
	var cum uint64
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, withLE(m.labels, formatValue(bound)), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	fmt.Fprintf(sb, "%s_bucket%s %d\n", m.name, withLE(m.labels, "+Inf"), cum)
	fmt.Fprintf(sb, "%s_sum%s %s\n", m.name, m.lstr, formatValue(snap.Sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", m.name, m.lstr, snap.Count)
}

// withLE renders a label set with the le label appended.
func withLE(labels []Label, le string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Name: "le", Value: le})
	return labelString(all)
}

// Sample is one hand-rendered series value: WriteSamples lets a layer emit
// scrape-time metrics derived from an existing stats snapshot (the farm's
// counters, cache tier sizes) without registering stateful metrics for
// values another subsystem already tracks.
type Sample struct {
	Labels []Label
	Value  float64
}

// WriteSamples renders one family of samples in exposition format. typ is
// "counter" or "gauge".
func WriteSamples(w io.Writer, name, help, typ string, samples ...Sample) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		fmt.Fprintf(&sb, "%s%s %s\n", name, labelString(s.Labels), formatValue(s.Value))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Ratio is the guarded hit-ratio helper every tier rollup uses: hits over
// hits+misses, 0 when nothing was looked up.
func Ratio(hits, misses int64) float64 {
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
