package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestMetricsEndpoint checks the Prometheus exposition: content type, the
// registry-backed families and the scrape-time farm families, with values
// consistent with the traffic that was just served.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	// One miss and one hit populate the farm counters, the phase and
	// compute histograms and the request histograms.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, family := range []string{
		// Registry-backed histograms and the in-flight count.
		"bifrost_http_request_seconds_bucket",
		"bifrost_http_in_flight",
		"bifrost_farm_phase_seconds_bucket",
		"bifrost_compute_seconds_bucket",
		// Scrape-time families derived from farm.Stats.
		"bifrost_farm_workers 2",
		"bifrost_farm_submitted_total 2",
		"bifrost_farm_hits_total 1",
		"bifrost_farm_misses_total 1",
		`bifrost_store_entries{tier="memory"} 1`,
		`bifrost_store_hits_total{tier="memory"} 1`,
		"bifrost_pack_cache_hits_total",
		"bifrost_traces_recorded_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %q", family)
		}
	}
	// Every HELP line must be paired with a TYPE line.
	if got, want := strings.Count(text, "# HELP"), strings.Count(text, "# TYPE"); got != want || got == 0 {
		t.Errorf("HELP lines %d, TYPE lines %d", got, want)
	}
	// The scrape itself is in flight while it renders.
	if v := metricValue(t, text, "bifrost_http_in_flight"); v < 1 {
		t.Errorf("bifrost_http_in_flight = %v during a scrape, want >= 1", v)
	}
	// Ratios are derived by the scraper (rate of hits over rate of
	// lookups), never served as lifetime values.
	if strings.Contains(text, "_ratio") {
		t.Error("exposition serves a _ratio family")
	}
}

// TestMetricsSoloScenario drives one node through every way a job is
// answered — a miss, a disk hit, a memory hit, a disk hit after eviction,
// a corrupt disk record, a failed job, a panic and a dedup behind a busy
// worker — and checks that each scrape-time family moves with it.
func TestMetricsSoloScenario(t *testing.T) {
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// One memory entry and one pack-cache entry: the second distinct job
	// evicts the first from both.
	fm := farm.New(1, farm.WithMaxEntries(1), farm.WithDiskStore(ds),
		farm.WithPackCache(tensor.NewPackCache(1, 0)), farm.WithTraceRing(telemetry.NewTraceRing(8)))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	expect := func(step string, want map[string]float64) {
		t.Helper()
		body := scrapeMetrics(t, ts.URL)
		for name, v := range want {
			if got := metricValue(t, body, name); got != v {
				t.Errorf("%s: %s = %v, want %v", step, name, got, v)
			}
		}
	}
	conv := func(seed int64) JobRequest {
		return JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "conv2d",
			Conv: &ConvSpec{C: 2, H: 10, K: 4, R: 3}, Seed: seed}
	}
	simulate := func(step string, req JobRequest, status int, cached bool) JobResponse {
		t.Helper()
		code, jr := postSimulate(t, ts.URL, req)
		if code != status || jr.Cached != cached {
			t.Fatalf("%s: HTTP %d cached=%v (%s), want HTTP %d cached=%v", step, code, jr.Cached, jr.Error, status, cached)
		}
		return jr
	}

	// A computed result goes to disk; memory holds what is read again.
	simulate("miss", conv(1), http.StatusOK, false)
	expect("miss", map[string]float64{
		"bifrost_farm_completed_total":            1,
		`bifrost_store_puts_total{tier="disk"}`:   1,
		`bifrost_store_puts_total{tier="memory"}`: 0,
		`bifrost_store_misses_total{tier="disk"}`: 1,
		`bifrost_store_entries{tier="memory"}`:    0,
		`bifrost_store_bytes{tier="memory"}`:      0,
		"bifrost_pack_cache_entries":              1,
		"bifrost_traces_recorded_total":           1,
	})
	for _, name := range []string{`bifrost_store_misses_total{tier="memory"}`, `bifrost_store_bytes{tier="disk"}`,
		"bifrost_pack_cache_misses_total", "bifrost_pack_cache_bytes"} {
		if metricValue(t, scrapeMetrics(t, ts.URL), name) == 0 {
			t.Errorf("miss: %s = 0 after a computed MAERI conv", name)
		}
	}

	simulate("disk hit", conv(1), http.StatusOK, true)
	expect("disk hit", map[string]float64{
		"bifrost_farm_disk_hits_total":            1,
		`bifrost_store_puts_total{tier="memory"}`: 1,
		`bifrost_store_entries{tier="memory"}`:    1,
	})
	if metricValue(t, scrapeMetrics(t, ts.URL), `bifrost_store_bytes{tier="memory"}`) == 0 {
		t.Error("disk hit: the promoted result holds no memory-tier bytes")
	}

	simulate("memory hit", conv(1), http.StatusOK, true)
	expect("memory hit", map[string]float64{
		"bifrost_farm_hits_total":                 2,
		"bifrost_farm_disk_hits_total":            1,
		`bifrost_store_hits_total{tier="memory"}`: 1,
	})

	second := simulate("second miss", conv(2), http.StatusOK, false)
	expect("second miss", map[string]float64{
		"bifrost_farm_completed_total": 2,
		"bifrost_pack_cache_entries":   1,
	})
	if metricValue(t, scrapeMetrics(t, ts.URL), "bifrost_pack_cache_evictions_total") == 0 {
		t.Error("a second operand set did not evict from a one-entry pack cache")
	}

	// Reading the second job back takes the memory tier's one slot.
	simulate("second disk hit", conv(2), http.StatusOK, true)
	expect("second disk hit", map[string]float64{
		"bifrost_farm_disk_hits_total":                 2,
		`bifrost_store_evictions_total{tier="memory"}`: 1,
	})
	simulate("disk hit after eviction", conv(1), http.StatusOK, true)
	expect("disk hit after eviction", map[string]float64{
		"bifrost_farm_disk_hits_total":                 3,
		`bifrost_store_evictions_total{tier="memory"}`: 2,
	})

	// The second job is on disk only now; damage its record so the next
	// lookup finds a corrupt frame and recomputes.
	path, b, off := diskRecord(t, ds.Dir(), second.Key)
	b[off+64+(len(b)-off-64)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	packHits := metricValue(t, scrapeMetrics(t, ts.URL), "bifrost_pack_cache_hits_total")
	simulate("corrupt record", conv(2), http.StatusOK, false)
	expect("corrupt record", map[string]float64{
		`bifrost_store_corrupt_total{tier="disk"}`: 1,
		"bifrost_farm_completed_total":             3,
	})
	// The recomputation finds the output it computed before in the pack
	// cache, by operand identity.
	if metricValue(t, scrapeMetrics(t, ts.URL), "bifrost_pack_cache_hits_total") <= packHits {
		t.Error("recomputing a job whose output the pack cache holds scored no pack hit")
	}

	bad := conv(3)
	bad.Mapping = []int{3, 3, 1, 5, 1, 1, 1, 1} // T_K=5 exceeds K=4
	simulate("failed job", bad, http.StatusUnprocessableEntity, false)
	expect("failed job", map[string]float64{"bifrost_farm_failed_total": 1})

	panicky := farm.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
		M: 1, K: 32, N: 18, FCMapping: mapping.BasicFC()}.WithFaultHook(func() { panic("injected") })
	if _, err := fm.Do(panicky); err == nil {
		t.Fatal("a panicking job returned no error")
	}
	expect("panic", map[string]float64{"bifrost_farm_panics_total": 1})

	// Two identical requests queue behind a pinned worker: one job, two
	// waiters.
	started, release := make(chan struct{}), make(chan struct{})
	unpin := sync.OnceFunc(func() { close(release) })
	defer unpin() // unpin before Close so the farm can drain
	go fm.Do(pinJob(1, started, release))
	<-started
	dry, err := json.Marshal(JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense",
		Dense: &DenseSpec{K: 32, N: 17}, DryRun: true})
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/simulate", "application/json", bytes.NewReader(dry))
			if err != nil {
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	waitFor(t, "the second request to attach", func() bool { return fm.Stats().Deduped == 1 })
	expect("busy worker", map[string]float64{
		"bifrost_farm_busy_workers":  1,
		"bifrost_farm_queue_depth":   1,
		"bifrost_farm_pending_jobs":  2,
		"bifrost_farm_deduped_total": 1,
	})
	unpin()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("deduped request answered HTTP %d", code)
		}
	}
	waitFor(t, "the pinned job to finish", func() bool { return fm.Stats().Pending == 0 })
	expect("idle", map[string]float64{
		"bifrost_farm_busy_workers": 0,
		"bifrost_farm_queue_depth":  0,
		"bifrost_farm_pending_jobs": 0,
	})
}

// diskRecord finds key's last record among the disk store's segments: the
// segment's path and contents, and the record's offset.
func diskRecord(t *testing.T, dir, key string) (path string, b []byte, off int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.LastIndex(data, []byte(key)); i >= 0 {
			path, b, off = p, data, i
		}
	}
	if path == "" {
		t.Fatalf("no record of %s in %s", key, dir)
	}
	return path, b, off
}

// TestVersionEndpoint checks the build/runtime descriptor.
func TestVersionEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.GoVersion, "go") {
		t.Errorf("go_version %q", v.GoVersion)
	}
	if v.SIMD == "" {
		t.Error("simd level empty")
	}
	if v.Farm.Workers != 2 {
		t.Errorf("farm.workers = %d, want 2", v.Farm.Workers)
	}
}

// TestTraceRoundTrip checks the per-request trace flag: a traced request
// echoes a lifecycle trace naming its source tier, an untraced request
// carries none, and tracing never changes keys or results.
func TestTraceRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	traced := strings.Replace(convBody, `"seed": 1`, `"seed": 1, "trace": true`, 1)

	post := func(body string) JobResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		if jr.Error != "" {
			t.Fatal(jr.Error)
		}
		return jr
	}

	first := post(traced)
	if first.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if first.Trace.Source != "compute" {
		t.Errorf("fresh trace source %q, want compute", first.Trace.Source)
	}
	if first.Trace.Key != first.Key {
		t.Errorf("trace key %q != response key %q", first.Trace.Key, first.Key)
	}
	if first.Trace.ComputeMS <= 0 {
		t.Errorf("fresh trace compute_ms = %v, want > 0", first.Trace.ComputeMS)
	}

	second := post(traced)
	if !second.Cached {
		t.Fatal("repeat of traced request missed the cache")
	}
	if second.Trace == nil || second.Trace.Source != "memory" {
		t.Fatalf("warm trace = %+v, want source memory", second.Trace)
	}

	// An untraced request shares the cache entry (trace flag excluded from
	// the key) and carries no trace.
	plain := post(convBody)
	if !plain.Cached || plain.Key != first.Key {
		t.Fatalf("untraced request did not share the traced entry: cached=%v key=%q vs %q",
			plain.Cached, plain.Key, first.Key)
	}
	if plain.Trace != nil {
		t.Errorf("untraced request carried a trace: %+v", plain.Trace)
	}
	if plain.OutputSum != first.OutputSum || *plain.Stats != *first.Stats {
		t.Error("tracing changed the result payload")
	}
}

// TestElapsedSubMillisecond pins the float elapsed_ms contract: an analytic
// dry run completes in well under a millisecond and must report a positive
// fractional time, not a truncated 0.
func TestElapsedSubMillisecond(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"arch": {"controller": "maeri"}, "op": "conv2d",
		"conv": {"c": 2, "h": 8, "k": 4, "r": 3}, "dry_run": true}`
	// Warm the cache so the timed request is a pure memory hit.
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if jr.Error != "" {
			t.Fatal(jr.Error)
		}
		if jr.ElapsedMS <= 0 {
			t.Fatalf("elapsed_ms = %v, want > 0 (sub-millisecond times must not truncate)", jr.ElapsedMS)
		}
	}
}

// TestDebugTraces checks the bounded trace ring endpoint: executions land in
// the ring newest-first and the total keeps counting past the capacity.
func TestDebugTraces(t *testing.T) {
	ring := telemetry.NewTraceRing(8)
	fm := farm.New(2, farm.WithTraceRing(ring))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	tresp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var tr TracesResponse
	if err := json.NewDecoder(tresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Total != 1 || len(tr.Traces) != 1 {
		t.Fatalf("traces = %+v, want exactly the one execution", tr)
	}
	if tr.Traces[0].Source != "compute" {
		t.Errorf("trace source %q, want compute", tr.Traces[0].Source)
	}
}

// TestStatsExtended decodes the extended /stats payload and checks the
// telemetry rollups layered on top of the raw farm snapshot.
func TestStatsExtended(t *testing.T) {
	ts, _ := newTestServer(t)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("raw farm counters lost in the extended payload: %+v", st.Stats)
	}
	if st.Ratios.Farm != 0.5 {
		t.Errorf("farm ratio %v, want 0.5", st.Ratios.Farm)
	}
	if st.Ratios.Memory <= 0 {
		t.Errorf("memory ratio %v, want > 0", st.Ratios.Memory)
	}
	if st.Phases["compute"].Count == 0 {
		t.Error("compute phase summary empty after an execution")
	}
	if _, ok := st.Compute["maeri"]; !ok {
		t.Errorf("compute summaries missing maeri: %v", st.Compute)
	}
	if st.Requests["/simulate"].Count < 2 {
		t.Errorf("request summary for /simulate = %+v, want >= 2 observations", st.Requests["/simulate"])
	}
	if st.Limits.Workers != 2 {
		t.Errorf("limits.workers = %d", st.Limits.Workers)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime %v", st.UptimeSeconds)
	}
}

// TestSlowJobLogging checks that a threshold of one nanosecond flags every
// job as slow and logs its key with the lifecycle trace, without echoing a
// trace to a client that did not ask for one.
func TestSlowJobLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	fm := farm.New(1)
	ts := httptest.NewServer(NewServer(fm, WithLogger(logger), WithSlowJobThreshold(time.Nanosecond)))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if jr.Trace != nil {
		t.Error("slow-job tracing leaked into a response that did not request a trace")
	}

	logs := buf.String()
	if !strings.Contains(logs, "slow job") {
		t.Fatalf("no slow-job warning in logs:\n%s", logs)
	}
	if !strings.Contains(logs, jr.Key) {
		t.Error("slow-job warning does not name the job key")
	}
	if !strings.Contains(logs, "compute_ms") {
		t.Error("slow-job warning carries no lifecycle trace")
	}
	if !strings.Contains(logs, `"path":"/simulate"`) {
		t.Error("request log line missing")
	}
}
