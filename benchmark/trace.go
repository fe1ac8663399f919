package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (no file outside benchmark/ carries instrumentation). Spans of one
// op share Op; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Kind   string `json:"kind"` // "request" (traced window) or "ladder" (replay)
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh op id shared by every span of one request or replay.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(parent, op int, kind, name, layer string, start time.Time, d time.Duration) int {
	if d < 0 {
		d = 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Kind: kind, Name: name, Layer: layer, Start: s, End: s + d.Nanoseconds()})
	return id
}

// timed runs f and records it as a span.
func (t *tracer) timed(parent, op int, kind, name, layer string, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	d := time.Since(start)
	return t.add(parent, op, kind, name, layer, start, d), d
}

// setDuration rewrites a span's duration, for a parent whose own wall clock
// covered replays of its children and has to be rebuilt from their sum.
func (t *tracer) setDuration(id int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = s.Start + d.Nanoseconds()
}

// selfShares attributes the ladder spans' time to layers. A span's self time
// is its duration minus its children's, and a layer's share is its self
// time over the summed duration of the ladder roots. The rungs are separate
// executions, so the children of a span can add up to more than the span
// itself; they are then scaled down to fit it — a replayed child cannot
// account for more than its parent took — which keeps every self time
// non-negative and makes the shares sum to 1.
func (t *tracer) selfShares() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]int) // parent id -> indices into t.spans
	var total float64
	for i, s := range t.spans {
		if s.Kind != "ladder" {
			continue
		}
		kids[s.Parent] = append(kids[s.Parent], i)
		if s.Parent == 0 {
			total += float64(s.End - s.Start)
		}
	}
	out := make(map[string]float64, len(layers))
	if total == 0 {
		return out
	}
	var walk func(i int, eff float64)
	walk = func(i int, eff float64) {
		s := t.spans[i]
		var sum float64
		for _, k := range kids[s.ID] {
			sum += float64(t.spans[k].End - t.spans[k].Start)
		}
		scale := 1.0
		if dur := float64(s.End - s.Start); dur > 0 {
			scale = eff / dur
		}
		if sum*scale > eff {
			scale = eff / sum
		}
		out[s.Layer] += (eff - sum*scale) / total
		for _, k := range kids[s.ID] {
			walk(k, float64(t.spans[k].End-t.spans[k].Start)*scale)
		}
	}
	for _, i := range kids[0] {
		walk(i, float64(t.spans[i].End-t.spans[i].Start))
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}
