package serve

import (
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/api"
	"repro/internal/farm"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Ratios summarises every cache tier as a single hit fraction.
type Ratios struct {
	// Farm is the fraction of submissions answered without a simulator
	// execution (cache hits plus single-flight attaches).
	Farm float64 `json:"farm"`
	// Memory and Disk are the per-tier lookup hit ratios.
	Memory float64 `json:"memory"`
	Disk   float64 `json:"disk,omitempty"`
	// Pack is the packed-operand cache's hit ratio.
	Pack float64 `json:"pack"`
}

// StatsResponse is the extended GET /stats payload: the farm's raw counter
// snapshot (unchanged shape — existing clients keep decoding it) plus the
// telemetry rollups layered on top.
type StatsResponse struct {
	farm.Stats
	// Ratios are the derived per-tier hit fractions.
	Ratios Ratios `json:"ratios"`
	// Phases summarises the per-phase job lifecycle histograms
	// (enqueue_wait, dedup, mem_lookup, disk_lookup, compute, persist).
	Phases map[string]telemetry.HistogramSummary `json:"phases,omitempty"`
	// Compute summarises simulator compute time per controller.
	Compute map[string]telemetry.HistogramSummary `json:"compute,omitempty"`
	// Requests summarises HTTP latency per endpoint.
	Requests map[string]telemetry.HistogramSummary `json:"requests,omitempty"`
	// Limits are the farm's configured bounds.
	Limits farm.Limits `json:"limits"`
	// TracesRecorded counts lifecycle traces captured into the debug ring.
	TracesRecorded uint64  `json:"traces_recorded"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	// Draining reports that this node has begun draining: it refuses new
	// work and /healthz answers 503 until the process exits.
	Draining bool `json:"draining"`
	// ActiveSweeps counts resumable sweeps currently executing (including
	// sweeps whose client has disconnected).
	ActiveSweeps int `json:"active_sweeps"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.farm.Stats()
	resp := StatsResponse{
		Stats: st,
		Ratios: Ratios{
			Farm:   st.HitRate(),
			Memory: st.Memory.HitRatio(),
			Pack:   telemetry.Ratio(st.Pack.Hits, st.Pack.Misses),
		},
		Phases:         farm.PhaseSummaries(),
		Compute:        api.ComputeSummaries(),
		Requests:       make(map[string]telemetry.HistogramSummary, len(s.reqSeconds)),
		Limits:         s.farm.Limits(),
		TracesRecorded: s.ring.Total(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.Draining(),
		ActiveSweeps:   s.sweeps.activeSweeps(),
	}
	if st.Disk != nil {
		resp.Ratios.Disk = st.Disk.HitRatio()
	}
	for path, hist := range s.reqSeconds {
		resp.Requests[path] = hist.Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

// MetricsHandler returns the Prometheus scrape handler standalone, so main
// can also mount it on the pprof side port.
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
	telemetry.WriteSamples(w, "bifrost_http_in_flight", "HTTP requests currently being served.", "gauge",
		telemetry.Sample{Value: float64(httpInFlight.Load())})
	s.writeFarmMetrics(w)
	if s.coord != nil {
		s.coord.writeMetrics(w)
	}
}

// bit01 renders a boolean as a 0/1 gauge value.
func bit01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// writeFarmMetrics renders the farm's counter snapshot as exposition
// families at scrape time. These values are owned by the farm's Stats
// accounting; deriving them per scrape keeps /metrics and /stats exactly
// consistent without double-counting state in the registry.
func (s *Server) writeFarmMetrics(w io.Writer) {
	st := s.farm.Stats()
	one := func(v float64) []telemetry.Sample { return []telemetry.Sample{{Value: v}} }

	telemetry.WriteSamples(w, "bifrost_farm_workers", "Configured worker pool size.", "gauge", one(float64(st.Workers))...)
	telemetry.WriteSamples(w, "bifrost_farm_busy_workers", "Workers executing a job right now.", "gauge", one(float64(st.BusyWorkers))...)
	telemetry.WriteSamples(w, "bifrost_farm_queue_depth", "Jobs waiting for a worker.", "gauge", one(float64(st.Queued))...)
	telemetry.WriteSamples(w, "bifrost_farm_pending_jobs", "Jobs queued or running.", "gauge", one(float64(st.Pending))...)

	telemetry.WriteSamples(w, "bifrost_farm_submitted_total", "Jobs handed to the farm.", "counter", one(float64(st.Submitted))...)
	telemetry.WriteSamples(w, "bifrost_farm_completed_total", "Simulator executions finished.", "counter", one(float64(st.Completed))...)
	telemetry.WriteSamples(w, "bifrost_farm_failed_total", "Simulator executions failed.", "counter", one(float64(st.Failed))...)
	telemetry.WriteSamples(w, "bifrost_farm_panics_total", "Simulator panics recovered into per-job errors.", "counter", one(float64(st.Panics))...)
	telemetry.WriteSamples(w, "bifrost_farm_cancelled_total", "Jobs dropped before execution because every waiter left or shutdown abandoned them.", "counter", one(float64(st.Cancelled))...)
	telemetry.WriteSamples(w, "bifrost_farm_rejected_total", "Submissions refused by the queue bound (backpressure).", "counter", one(float64(st.Rejected))...)
	telemetry.WriteSamples(w, "bifrost_farm_hits_total", "Submissions served from cache.", "counter", one(float64(st.Hits))...)
	telemetry.WriteSamples(w, "bifrost_farm_disk_hits_total", "Cache hits answered by the disk tier.", "counter", one(float64(st.DiskHits))...)
	telemetry.WriteSamples(w, "bifrost_farm_misses_total", "Submissions that required a simulation.", "counter", one(float64(st.Misses))...)
	telemetry.WriteSamples(w, "bifrost_farm_deduped_total", "Submissions attached to an in-flight execution.", "counter", one(float64(st.Deduped))...)

	tier := func(name string) []telemetry.Label { return []telemetry.Label{{Name: "tier", Value: name}} }
	tiers := []struct {
		labels []telemetry.Label
		st     farm.StoreStats
	}{{tier("memory"), st.Memory}}
	if st.Disk != nil {
		tiers = append(tiers, struct {
			labels []telemetry.Label
			st     farm.StoreStats
		}{tier("disk"), *st.Disk})
	}
	family := func(suffix, help, typ string, pick func(farm.StoreStats) float64) {
		samples := make([]telemetry.Sample, len(tiers))
		for i, t := range tiers {
			samples[i] = telemetry.Sample{Labels: t.labels, Value: pick(t.st)}
		}
		telemetry.WriteSamples(w, "bifrost_store_"+suffix, help, typ, samples...)
	}
	family("entries", "Results held by the tier.", "gauge", func(s farm.StoreStats) float64 { return float64(s.Entries) })
	family("bytes", "Resident bytes held by the tier.", "gauge", func(s farm.StoreStats) float64 { return float64(s.Bytes) })
	family("hits_total", "Tier lookup hits.", "counter", func(s farm.StoreStats) float64 { return float64(s.Hits) })
	family("misses_total", "Tier lookup misses.", "counter", func(s farm.StoreStats) float64 { return float64(s.Misses) })
	family("puts_total", "Results stored into the tier.", "counter", func(s farm.StoreStats) float64 { return float64(s.Puts) })
	family("evictions_total", "Entries evicted to honour the tier's bounds.", "counter", func(s farm.StoreStats) float64 { return float64(s.Evictions) })
	family("corrupt_total", "Entries dropped as corrupt.", "counter", func(s farm.StoreStats) float64 { return float64(s.Corrupt) })
	family("errors_total", "Tier I/O errors.", "counter", func(s farm.StoreStats) float64 { return float64(s.Errors) })
	if st.Disk != nil {
		d := *st.Disk
		telemetry.WriteSamples(w, "bifrost_farm_disk_errors_total",
			"Disk tier I/O failures: failed reads and writes plus failed deletes of corrupt or evicted entries.",
			"counter", one(float64(d.Errors+d.DeleteErrors))...)
		telemetry.WriteSamples(w, "bifrost_farm_disk_retries_total",
			"Disk operations re-attempted after a transient failure.",
			"counter", one(float64(d.Retries))...)
		telemetry.WriteSamples(w, "bifrost_farm_disk_breaker_trips_total",
			"Times the disk tier's health breaker opened.",
			"counter", one(float64(d.Trips))...)
		degraded := 0.0
		if d.Degraded {
			degraded = 1
		}
		telemetry.WriteSamples(w, "bifrost_farm_disk_degraded",
			"1 while the disk tier is quarantined (farm serving memory-only).",
			"gauge", one(degraded)...)
	}

	if s.repl != nil {
		rp := s.repl.ReplicaStats()
		telemetry.WriteSamples(w, "bifrost_replica_members",
			"Remote replica targets configured.",
			"gauge", one(float64(rp.Members))...)
		telemetry.WriteSamples(w, "bifrost_replica_healthy",
			"Remote replica targets currently accepting traffic.",
			"gauge", one(float64(rp.Healthy))...)
		telemetry.WriteSamples(w, "bifrost_replica_writes_total",
			"Successful remote replica writes (Put fan-out).",
			"counter", one(float64(rp.Writes))...)
		telemetry.WriteSamples(w, "bifrost_replica_failures_total",
			"Failed remote replica writes.",
			"counter", one(float64(rp.Failures))...)
		telemetry.WriteSamples(w, "bifrost_replication_degraded",
			"1 while fewer than R replica owners are reachable.",
			"gauge", one(bit01(rp.Degraded))...)
	}

	pk := st.Pack
	telemetry.WriteSamples(w, "bifrost_pack_cache_entries", "Packed operands held.", "gauge", one(float64(pk.Entries))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_bytes", "Resident packed-operand bytes.", "gauge", one(float64(pk.Bytes))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_hits_total", "Packed-operand reuse hits.", "counter", one(float64(pk.Hits))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_misses_total", "Packed-operand misses.", "counter", one(float64(pk.Misses))...)
	telemetry.WriteSamples(w, "bifrost_pack_cache_evictions_total", "Packed operands evicted.", "counter", one(float64(pk.Evictions))...)

	telemetry.WriteSamples(w, "bifrost_traces_recorded_total", "Lifecycle traces captured into the debug ring.", "counter", one(float64(s.ring.Total()))...)

	ready, _ := s.readiness()
	telemetry.WriteSamples(w, "bifrost_draining",
		"1 while the node is draining (new work refused, queued work finishing).",
		"gauge", one(bit01(s.Draining()))...)
	telemetry.WriteSamples(w, "bifrost_ready",
		"1 while the node is ready for new work (not draining, disk tier healthy, queue below bound).",
		"gauge", one(bit01(ready))...)
	telemetry.WriteSamples(w, "bifrost_active_sweeps",
		"Resumable sweeps currently executing.",
		"gauge", one(float64(s.sweeps.activeSweeps()))...)
	telemetry.WriteSamples(w, "bifrost_sweep_rows_replayed_total",
		"Sweep rows answered from the journal and cache instead of recomputing.",
		"counter", one(float64(s.sweeps.replayed.Load()))...)
}

// VersionInfo is the GET /version payload.
type VersionInfo struct {
	Module      string      `json:"module,omitempty"`
	Version     string      `json:"version,omitempty"`
	GoVersion   string      `json:"go_version"`
	VCSRevision string      `json:"vcs_revision,omitempty"`
	VCSTime     string      `json:"vcs_time,omitempty"`
	SIMD        string      `json:"simd"`
	Farm        farm.Limits `json:"farm"`
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	info := VersionInfo{
		GoVersion: runtime.Version(),
		SIMD:      tensor.SIMDLevel(),
		Farm:      s.farm.Limits(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		info.Version = bi.Main.Version
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				info.VCSRevision = kv.Value
			case "vcs.time":
				info.VCSTime = kv.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// TracesResponse is the GET /debug/traces payload: the ring's retained
// lifecycle traces, newest first.
type TracesResponse struct {
	Total  uint64             `json:"total"`
	Traces []*telemetry.Trace `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TracesResponse{Total: s.ring.Total(), Traces: s.ring.Snapshot()})
}
