package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// encodeNDJSON renders a sweep as an NDJSON request body.
func encodeNDJSON(t *testing.T, reqs []JobRequest) *bytes.Buffer {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return &body
}

// postSweepNDJSON drives reqs through /batch with the given query string
// and returns the streamed rows.
func postSweepNDJSON(t *testing.T, base, query string, reqs []JobRequest) []JobResponse {
	t.Helper()
	resp, err := http.Post(base+"/batch?"+query, "application/x-ndjson", encodeNDJSON(t, reqs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch %s: HTTP %d: %s", query, resp.StatusCode, b)
	}
	var out []JobResponse
	dec := json.NewDecoder(resp.Body)
	for {
		var jr JobResponse
		if err := dec.Decode(&jr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, jr)
	}
	return out
}

// assertSweepRows asserts byte-identity in the coordinator tests' sense:
// same keys, same counters, same output checksums, no error rows.
func assertSweepRows(t *testing.T, context string, want, got []JobResponse) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i].Error != "" {
			t.Fatalf("%s: row %d failed: %s (code %s)", context, i, got[i].Error, got[i].Code)
		}
		if got[i].Key != want[i].Key {
			t.Errorf("%s: row %d key %s, want %s", context, i, got[i].Key, want[i].Key)
		}
		if *got[i].Stats != *want[i].Stats {
			t.Errorf("%s: row %d stats diverge:\n got %+v\nwant %+v", context, i, *got[i].Stats, *want[i].Stats)
		}
		if got[i].OutputSum != want[i].OutputSum {
			t.Errorf("%s: row %d output checksum %v, want %v", context, i, got[i].OutputSum, want[i].OutputSum)
		}
	}
}

// waitSweepsIdle polls /stats until no sweep is executing.
func waitSweepsIdle(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.ActiveSweeps == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep still active after 30s")
}

// TestChaosSweepDisconnectResumeRestart is the tentpole's client-failure
// proof: a resumable sweep loses its client after three rows, the server
// finishes and journals the rest on its own, a reconnect replays the whole
// sweep byte-identically with zero recomputation — and so does a cold
// process restarted over the same cache and journal directories.
func TestChaosSweepDisconnectResumeRestart(t *testing.T) {
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	root := t.TempDir()
	cacheDir, sweepDir := filepath.Join(root, "cache"), filepath.Join(root, "sweeps")
	boot := func() (*httptest.Server, *Server, *farm.Farm) {
		ds, err := farm.NewDiskStore(cacheDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fm := farm.New(2, farm.WithDiskStore(ds))
		srv := NewServer(fm, WithSweepDir(sweepDir))
		return httptest.NewServer(srv), srv, fm
	}
	ts, _, fm := boot()

	// Phase 1: start the sweep, take three rows, drop the connection.
	ctx, cancel := context.WithCancel(context.Background())
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/batch?sweep_id=pr9", encodeNDJSON(t, reqs))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep start: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for i := 0; i < 3; i++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading streamed row %d: %v", i, err)
		}
		var jr JobResponse
		if err := json.Unmarshal(line, &jr); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if jr.Error != "" {
			t.Fatalf("row %d failed before the disconnect: %s", i, jr.Error)
		}
	}
	cancel()
	resp.Body.Close()

	// The server must finish the sweep with no client attached.
	waitSweepsIdle(t, ts.URL)

	// Phase 2: reconnect on the same process — the journal answers every
	// row from cache; the JSON collect path must agree with the stream.
	execBefore := fm.Stats().Completed
	if execBefore != int64(len(reqs)) {
		t.Fatalf("detached sweep executed %d simulations, want %d", execBefore, len(reqs))
	}
	var batch BatchRequest
	batch.Jobs = reqs
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	jresp, err := http.Post(ts.URL+"/batch?sweep_id=pr9&resume=true", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var br2 BatchResponse
	if err := json.NewDecoder(jresp.Body).Decode(&br2); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	assertSweepRows(t, "same-process resume", want, br2.Results)
	if got := fm.Stats().Completed; got != execBefore {
		t.Fatalf("resume recomputed: %d executions, want %d", got, execBefore)
	}

	// Phase 3: cold restart over the same directories — byte-identical,
	// zero simulator executions, every row replayed from the journal.
	ts.Close()
	fm.Close()
	ts2, srv2, fm2 := boot()
	t.Cleanup(func() { ts2.Close(); fm2.Close() })
	got := postSweepNDJSON(t, ts2.URL, "sweep_id=pr9&resume=true", reqs)
	assertSweepRows(t, "post-restart resume", want, got)
	if n := fm2.Stats().Completed; n != 0 {
		t.Fatalf("restarted resume executed %d simulations, want 0", n)
	}
	if n := srv2.sweeps.replayed.Load(); n != int64(len(reqs)) {
		t.Fatalf("restarted resume replayed %d rows from the journal, want %d", n, len(reqs))
	}
	for i, row := range got {
		if !row.Cached {
			t.Errorf("post-restart row %d not served from cache", i)
		}
	}
}

// TestChaosSweepConflictAndFreshStart pins the registry's id semantics: a
// second client cannot steal a live id without resume, a resume must send
// the live run's own jobs row for row, and resubmitting a finished id without resume starts
// over instead of replaying the stale journal.
func TestChaosSweepConflictAndFreshStart(t *testing.T) {
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// A slow disk tier (50ms per touch, one worker) keeps the first sweep
	// deterministically active while the conflicting requests land.
	fs := farmtest.NewFaultStore(ds, farmtest.FaultPolicy{Latency: 50 * time.Millisecond})
	fm := farm.New(1, farm.WithDiskStore(fs))
	srv := NewServer(fm)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); fm.Close() })

	reqs := sweepRequests()
	done := make(chan []JobResponse, 1)
	go func() { done <- postSweepNDJSON(t, ts.URL, "sweep_id=busy", reqs) }()

	deadline := time.Now().Add(30 * time.Second)
	for srv.sweeps.activeSweeps() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sweep never became active")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Same id, no resume: refused while the sweep runs.
	resp, err := http.Post(ts.URL+"/batch?sweep_id=busy", "application/x-ndjson", encodeNDJSON(t, reqs))
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || jr.Code != "sweep_conflict" {
		t.Fatalf("live-id steal: HTTP %d code %q, want 409 sweep_conflict", resp.StatusCode, jr.Code)
	}

	// Resume with a different row count: also refused.
	resp, err = http.Post(ts.URL+"/batch?sweep_id=busy&resume=true", "application/x-ndjson", encodeNDJSON(t, reqs[:2]))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("row-count mismatch: HTTP %d, want 409", resp.StatusCode)
	}

	// Resume with the right row count but another sweep's rows: refused — a
	// live run's rows answer the resume, so they must be the rows it sent.
	other := sweepRequests()
	for i := range other {
		other[i].Seed += 1000
	}
	resp, err = http.Post(ts.URL+"/batch?sweep_id=busy&resume=true", "application/x-ndjson", encodeNDJSON(t, other))
	if err != nil {
		t.Fatal(err)
	}
	jr = JobResponse{}
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || jr.Code != "sweep_conflict" {
		t.Fatalf("resume with another sweep's rows: HTTP %d code %q, want 409 sweep_conflict", resp.StatusCode, jr.Code)
	}

	// Resume with the same jobs, differing only in fields no key covers:
	// a second reader on the live run, answered with the run's own rows.
	same := sweepRequests()
	for i := range same {
		same[i].Trace, same[i].TimeoutMS, same[i].ExecWorkers = true, 60_000, 2
	}
	attached := postSweepNDJSON(t, ts.URL, "sweep_id=busy&resume=true", same)

	first := <-done
	assertSweepRows(t, "live-run resume", first, attached)
	for i, row := range first {
		if row.Error != "" {
			t.Fatalf("row %d of the contested sweep failed: %s", i, row.Error)
		}
	}

	// Finished id, resume: replayed without recomputation.
	execBefore := fm.Stats().Completed
	srv.sweeps.replayed.Store(0)
	resumed := postSweepNDJSON(t, ts.URL, "sweep_id=busy&resume=true", reqs)
	assertSweepRows(t, "finished-id resume", first, resumed)
	if got := fm.Stats().Completed; got != execBefore {
		t.Fatalf("finished-id resume recomputed: %d executions, want %d", got, execBefore)
	}
	if srv.sweeps.replayed.Load() == 0 {
		t.Error("finished-id resume replayed nothing from the journal")
	}

	// Finished id, no resume: the journal is discarded and rows go back
	// through dispatch (the farm cache may still answer them — but never
	// the journal).
	srv.sweeps.replayed.Store(0)
	fresh := postSweepNDJSON(t, ts.URL, "sweep_id=busy", reqs)
	assertSweepRows(t, "fresh start under a reused id", first, fresh)
	if n := srv.sweeps.replayed.Load(); n != 0 {
		t.Fatalf("fresh start replayed %d rows from a journal it should have discarded", n)
	}
}

// TestSweepRequestValidation covers the query-parameter contract.
func TestSweepRequestValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"resume=true", http.StatusBadRequest},              // resume without an id
		{"sweep_id=x&resume=banana", http.StatusBadRequest}, // non-boolean resume
	} {
		resp, err := http.Post(ts.URL+"/batch?"+tc.query, "application/json", bytes.NewReader([]byte(`{"jobs":[]}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("batch?%s: HTTP %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}
