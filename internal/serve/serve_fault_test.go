package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
)

// pinJob returns a cheap dry-run farm job (key unique to n) whose hook
// blocks the executing worker until release is closed, so tests drive
// queue depth and backpressure deterministically.
func pinJob(n int, started chan<- struct{}, release <-chan struct{}) farm.Job {
	j := farm.Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
		M: 1, K: 32, N: 4000 + n, FCMapping: mapping.BasicFC(),
	}
	return j.WithFaultHook(func() { close(started); <-release })
}

// dryBody returns a /simulate body for a cheap dry-run job unique to n.
func dryBody(n int, extra string) string {
	return fmt.Sprintf(`{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":32,"n":%d},"dry_run":true%s}`, n, extra)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeFaultBackpressure429 proves the HTTP backpressure contract: with
// the farm's queue at its bound, /simulate answers 429 with a Retry-After
// hint instead of queueing, and accepts work again once the queue drains.
func TestServeFaultBackpressure429(t *testing.T) {
	fm := farm.New(1, farm.WithMaxQueue(1))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	started := make(chan struct{})
	release := make(chan struct{})
	pinned := farmtest.Start(context.Background(), fm, pinJob(0, started, release))
	<-started
	filler := farm.Job{ // fills the queue's one slot; runs normally after the drain
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
		M: 1, K: 32, N: 4001, FCMapping: mapping.BasicFC(),
	}
	queued := farmtest.Start(context.Background(), fm, filler)
	waitFor(t, "queue to fill", func() bool { return fm.Stats().Queued == 1 })

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(100, "")))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body: %+v)", resp.StatusCode, jr)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	if !strings.Contains(jr.Error, "queue full") {
		t.Errorf("429 error %q does not name the queue bound", jr.Error)
	}
	if v := metricValue(t, scrapeMetrics(t, ts.URL), "bifrost_farm_rejected_total"); v != 1 {
		t.Errorf("bifrost_farm_rejected_total = %v after one 429, want 1", v)
	}

	// Drain and verify the server accepts work again.
	close(release)
	if _, err := pinned(); err != nil {
		t.Fatalf("pinned job: %v", err)
	}
	if _, err := queued(); err != nil {
		t.Fatalf("queued job: %v", err)
	}
	resp2, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(100, "")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-drain status = %d, want 200", resp2.StatusCode)
	}
}

// TestServeFaultTimeout504 proves timeout_ms: a job stuck behind a pinned
// worker past its budget answers 504 with a deadline error instead of
// holding the connection (and the queue slot) indefinitely.
func TestServeFaultTimeout504(t *testing.T) {
	fm := farm.New(1)
	ts := httptest.NewServer(NewServer(fm))
	started := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() { ts.Close(); fm.Close() })
	defer close(release) // unpin before Close so the farm can drain

	go fm.Do(pinJob(10, started, release))
	<-started

	resp, err := http.Post(ts.URL+"/simulate", "application/json",
		strings.NewReader(dryBody(110, `,"timeout_ms":50`)))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body: %+v)", resp.StatusCode, jr)
	}
	if !strings.Contains(jr.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("504 error %q does not name the deadline", jr.Error)
	}
	waitFor(t, "timed-out job to leave the queue", func() bool {
		return fm.Stats().Queued == 0
	})
	if st := fm.Stats(); st.Cancelled == 0 {
		t.Errorf("timed-out job was never reaped: %+v", st)
	}
	if v := metricValue(t, scrapeMetrics(t, ts.URL), "bifrost_farm_cancelled_total"); v == 0 {
		t.Error("bifrost_farm_cancelled_total = 0 after a timed-out job was reaped")
	}
}

// TestServeFaultTimeoutLeavesSharedJob proves timeout_ms belongs to its
// request, not to the job the request shares: a request with a 50 ms budget
// that queued a job answers 504, and a request for the same row with no
// deadline, attached to that job, answers 200 with the same key once the
// worker frees.
func TestServeFaultTimeoutLeavesSharedJob(t *testing.T) {
	fm := farm.New(1)
	ts := httptest.NewServer(NewServer(fm))
	started := make(chan struct{})
	release := make(chan struct{})
	unpin := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { ts.Close(); fm.Close() })
	defer unpin() // unpin before Close so the farm can drain

	go fm.Do(pinJob(40, started, release))
	<-started

	type answer struct {
		status int
		jr     JobResponse
	}
	post := func(extra string) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			var a answer
			defer func() { ch <- a }()
			resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(140, extra)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			a.status = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&a.jr); err != nil {
				t.Error(err)
			}
		}()
		return ch
	}
	timed := post(`,"timeout_ms":50`)
	waitFor(t, "the timed request's job to queue", func() bool { return fm.Stats().Queued == 1 })
	untimed := post(`,"timeout_ms":-1`)
	waitFor(t, "the untimed request to attach", func() bool { return fm.Stats().Deduped == 1 })

	a := <-timed
	if a.status != http.StatusGatewayTimeout {
		t.Fatalf("timed request: status %d, want 504 (body: %+v)", a.status, a.jr)
	}
	unpin()
	b := <-untimed
	if b.status != http.StatusOK {
		t.Fatalf("request with no deadline failed at another request's deadline: status %d, want 200 (body: %+v)", b.status, b.jr)
	}
	if a.jr.Key == "" || b.jr.Key != a.jr.Key {
		t.Errorf("504 names key %q, 200 names %q: want one key", a.jr.Key, b.jr.Key)
	}
	if st := fm.Stats(); st.Cancelled != 0 {
		t.Errorf("the shared job was cancelled though a request still waited on it: %+v", st)
	}
}

// TestServeFaultDefaultJobTimeout proves WithJobTimeout: a request that
// leaves timeout_ms unset inherits the server's default deadline and
// answers 504 with the deadline code, while a request that sets its own
// timeout_ms outlives that default and is answered once the worker frees.
func TestServeFaultDefaultJobTimeout(t *testing.T) {
	fm := farm.New(1)
	ts := httptest.NewServer(NewServer(fm, WithJobTimeout(50*time.Millisecond)))
	started := make(chan struct{})
	release := make(chan struct{})
	unpin := sync.OnceFunc(func() { close(release) })
	t.Cleanup(func() { ts.Close(); fm.Close() })
	defer unpin() // unpin before Close so the farm can drain

	go fm.Do(pinJob(50, started, release))
	<-started

	type answer struct {
		status int
		jr     JobResponse
	}
	overridden := make(chan answer, 1)
	go func() {
		var a answer
		defer func() { overridden <- a }()
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(150, `,"timeout_ms":60000`)))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		a.status = resp.StatusCode
		if err := json.NewDecoder(resp.Body).Decode(&a.jr); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the overriding request's job to queue", func() bool { return fm.Stats().Queued == 1 })

	// Queued after it, so answered only after the overriding request has
	// itself waited past the default. The client bound turns a server that
	// ignores its default into a failure, not a hang.
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(151, "")))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout || jr.Code != "deadline" || !jr.Retryable {
		t.Fatalf("default deadline: HTTP %d code %q retryable %v, want 504 deadline retryable (body: %+v)",
			resp.StatusCode, jr.Code, jr.Retryable, jr)
	}
	select {
	case a := <-overridden:
		t.Fatalf("a request with timeout_ms 60000 answered at the 50 ms default: HTTP %d (body: %+v)", a.status, a.jr)
	default:
	}
	unpin()
	if a := <-overridden; a.status != http.StatusOK || a.jr.Error != "" {
		t.Fatalf("overriding request: HTTP %d (body: %+v), want 200", a.status, a.jr)
	}
}

// TestServeFaultBatchDisconnectFreesQueue proves a dead client's sweep
// stops consuming the farm: cancelling a /batch request releases its
// still-queued jobs before any worker picks them up.
func TestServeFaultBatchDisconnectFreesQueue(t *testing.T) {
	fm := farm.New(1)
	ts := httptest.NewServer(NewServer(fm))
	started := make(chan struct{})
	release := make(chan struct{})
	t.Cleanup(func() { ts.Close(); fm.Close() })
	defer close(release)

	go fm.Do(pinJob(20, started, release))
	<-started

	var batch strings.Builder
	batch.WriteString(`{"jobs":[`)
	for i := 0; i < 6; i++ {
		if i > 0 {
			batch.WriteString(",")
		}
		batch.WriteString(dryBody(120+i, ""))
	}
	batch.WriteString(`]}`)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/batch", strings.NewReader(batch.String()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "batch jobs to queue behind the pinned worker", func() bool {
		return fm.Stats().Queued > 0
	})

	cancel() // the client walks away mid-sweep
	if err := <-errc; err == nil {
		t.Error("cancelled batch request reported no error to the client")
	}
	waitFor(t, "disconnected client's jobs to leave the queue", func() bool {
		return fm.Stats().Queued == 0
	})
	st := fm.Stats()
	if st.Cancelled == 0 {
		t.Errorf("no queued job was cancelled on disconnect: %+v", st)
	}
	if st.Completed != 0 {
		t.Errorf("a disconnected client's job still executed: %+v", st)
	}
}

// TestServeFaultDegradedDiskObservability proves a quarantined disk tier is
// visible to operators: /stats reports degraded with the breaker counters,
// and /metrics exposes the disk error, trip and degraded families.
func TestServeFaultDegradedDiskObservability(t *testing.T) {
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := farmtest.NewFaultStore(ds, farmtest.FaultPolicy{ErrRate: 1, Seed: 9})
	fm := farm.New(2, farm.WithDiskStore(farm.NewRetryStore(fs, farmtest.TestRetryPolicy())))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	// Enough traffic to trip the breaker (TripAfter 3), all still correct.
	for i := 0; i < 6; i++ {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(200+i, "")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d during disk outage: status %d, want 200", i, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Disk == nil || !st.Disk.Degraded {
		t.Fatalf("/stats does not report the quarantined disk tier: %+v", st.Disk)
	}
	if st.Disk.Trips == 0 {
		t.Errorf("/stats reports no breaker trips: %+v", st.Disk)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(strings.Builder)
	if _, err := fmt.Fprint(buf, readAll(t, mresp)); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"bifrost_farm_disk_degraded 1",
		"bifrost_farm_disk_breaker_trips_total",
		"bifrost_farm_disk_errors_total",
		"bifrost_farm_disk_retries_total",
		"bifrost_farm_panics_total",
		"bifrost_farm_cancelled_total",
		"bifrost_farm_rejected_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The faults are injected above the disk store, so the store itself
	// counts no I/O errors; the retry wrapper counts what it saw.
	for _, name := range []string{"bifrost_farm_disk_breaker_trips_total", "bifrost_farm_disk_retries_total"} {
		if metricValue(t, body, name) == 0 {
			t.Errorf("%s = 0 after a disk outage", name)
		}
	}
}

// TestServeFaultDiskWriteErrorCounted removes the disk tier's directory
// under a live node: the next result cannot be written, the job is still
// answered, and the failed write is counted in both error families.
func TestServeFaultDiskWriteErrorCounted(t *testing.T) {
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fm := farm.New(1, farm.WithDiskStore(ds))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })
	if err := os.RemoveAll(ds.Dir()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(300, "")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job with an unwritable disk tier: HTTP %d, want 200", resp.StatusCode)
	}
	body := scrapeMetrics(t, ts.URL)
	for _, name := range []string{`bifrost_store_errors_total{tier="disk"}`, "bifrost_farm_disk_errors_total"} {
		if v := metricValue(t, body, name); v != 1 {
			t.Errorf("%s = %v after one failed write, want 1", name, v)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}
