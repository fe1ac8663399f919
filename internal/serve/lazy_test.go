package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// postSimulate posts one request to /simulate and returns the status and
// the decoded response.
func postSimulate(t *testing.T, url string, req JobRequest) (int, JobResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, jr
}

// eagerKey is the oracle: the key of the fully materialised job, which keys
// like the named job the server submits (by spec and generator name).
func eagerKey(t *testing.T, req JobRequest) string {
	t.Helper()
	job, err := req.Job()
	if err != nil {
		t.Fatal(err)
	}
	if !req.DryRun && (job.Input == nil || job.Weights == nil) {
		t.Fatal("JobRequest.Job() returned a job without operands")
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// namedKey keys the request's named job with a generator that fails the
// test if anything builds an operand.
func namedKey(t *testing.T, req JobRequest) string {
	t.Helper()
	job, err := req.spec()
	if err != nil {
		t.Fatal(err)
	}
	if !job.DryRun {
		job = job.WithOperands(seededGenerator, func() (*tensor.Tensor, *tensor.Tensor) {
			t.Error("keying a seeded job built its operands")
			return nil, nil
		})
	}
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSeedReuseNeverAliases: a seeded job is keyed by its request spec, so
// a request that reuses a seed but changes anything the key covers must get
// its own key — always the materialised job's — while the knobs the key
// ignores (trace, timeout_ms) share the cache entry and generate nothing.
func TestSeedReuseNeverAliases(t *testing.T) {
	ts, _ := newTestServer(t)
	base := JobRequest{Arch: ArchSpec{Controller: "sigma", Sparsity: 50}, Op: "conv2d",
		Conv: &ConvSpec{C: 4, H: 8, K: 4, R: 3}, Seed: 9}
	_, first := postSimulate(t, ts.URL, base)
	if want := eagerKey(t, base); first.Key != want || first.Error != "" {
		t.Fatalf("base request: key %s (error %q), eager %s", first.Key, first.Error, want)
	}

	variant := func(mut func(*JobRequest)) JobRequest {
		v := base
		conv := *base.Conv
		v.Conv = &conv
		mut(&v)
		return v
	}
	changed := map[string]JobRequest{
		"dim":        variant(func(r *JobRequest) { r.Conv.H = 9 }),
		"sparsity":   variant(func(r *JobRequest) { r.Arch.Sparsity = 75 }),
		"controller": variant(func(r *JobRequest) { r.Arch = ArchSpec{Controller: "tpu"} }),
		"mapping":    variant(func(r *JobRequest) { r.Mapping = []int{3, 3, 1, 2, 1, 1, 1, 1} }),
		"op":         variant(func(r *JobRequest) { r.Op, r.Conv, r.Dense = "dense", nil, &DenseSpec{K: 8, N: 4} }),
		"dry_run": variant(func(r *JobRequest) {
			r.Arch, r.DryRun = ArchSpec{Controller: "maeri"}, true
		}),
		"seed":    variant(func(r *JobRequest) { r.Seed = 10 }),
		"weights": variant(func(r *JobRequest) { r.Conv.K = 8 }),
	}
	for name, v := range changed {
		_, got := postSimulate(t, ts.URL, v)
		want := eagerKey(t, v)
		if got.Error != "" || got.Key != want {
			t.Errorf("%s changed: key %s (error %q), eager %s", name, got.Key, got.Error, want)
		}
		if got.Key == first.Key {
			t.Errorf("%s changed but the request aliased the base request's key", name)
		}
		if got.Cached {
			t.Errorf("%s changed but the request was served from the base request's cache entry", name)
		}
	}

	for name, v := range map[string]JobRequest{
		"trace":      variant(func(r *JobRequest) { r.Trace = true }),
		"timeout_ms": variant(func(r *JobRequest) { r.TimeoutMS = 60_000 }),
	} {
		_, got := postSimulate(t, ts.URL, v)
		if got.Key != first.Key || !got.Cached {
			t.Errorf("%s set: key %s cached %v, want the base entry %s", name, got.Key, got.Cached, first.Key)
		}
		if key := namedKey(t, v); key != first.Key {
			t.Errorf("%s set: named key %s, want %s", name, key, first.Key)
		}
	}

	// The same requests in flight together on a fresh server: the ones that
	// share the base's operands share them through the operand registry,
	// and none of the others may pick them up — every row keys like its
	// materialised job.
	cold, _ := newTestServer(t)
	changed["base"] = base
	var wg sync.WaitGroup
	for name, v := range changed {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := eagerKey(t, v)
		for range 3 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(cold.URL+"/simulate", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var got JobResponse
				if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || got.Error != "" || got.Key != want {
					t.Errorf("%s in flight with the others: key %s (error %q, decode %v), eager %s", name, got.Key, got.Error, err, want)
				}
			}()
		}
	}
	wg.Wait()
}

// TestRetiredExecWorkersFieldIgnored: "exec_workers" is no longer a request
// field, and requests decode without DisallowUnknownFields, so a client that
// still sends it is answered byte for byte as the row without it — on
// /simulate and on an NDJSON /batch — under one key and one cache entry.
func TestRetiredExecWorkersFieldIgnored(t *testing.T) {
	ts, fm := newTestServer(t)
	// A SIGMA conv: the GEMM-lowered path the field used to cap.
	plain := `{"arch":{"controller":"sigma"},"op":"conv2d","conv":{"c":4,"h":12,"k":8,"r":3},"seed":9}`
	retired := `{"exec_workers":4,` + plain[1:]
	elapsed := regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
	post := func(path, ctype, body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, bytes.NewReader([]byte(body+"\n")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return string(elapsed.ReplaceAll(buf.Bytes(), []byte(`"elapsed_ms":0`)))
	}
	post("/simulate", "application/json", plain) // computes; every row below is a hit
	for _, ep := range [][2]string{{"/simulate", "application/json"}, {"/batch", "application/x-ndjson"}} {
		want, got := post(ep[0], ep[1], plain), post(ep[0], ep[1], retired)
		if got != want {
			t.Errorf("%s: exec_workers changed the answer:\n  with    %s\n  without %s", ep[0], got, want)
		}
		if !strings.Contains(got, `"cached":true`) {
			t.Errorf("%s: row with exec_workers missed the cache: %s", ep[0], got)
		}
	}
	if n := fm.Stats().Completed; n != 1 {
		t.Fatalf("%d simulations for one job, want 1", n)
	}

	// One key, named without building an operand.
	var req JobRequest
	if err := json.Unmarshal([]byte(retired), &req); err != nil {
		t.Fatal(err)
	}
	if key, want := namedKey(t, req), eagerKey(t, req); key != want {
		t.Errorf("named key %s, materialised %s", key, want)
	}
}

// TestQueueFullRowNamesItsKey: an error row names its job with the same key
// a successful run of the request reports, and JobRequest.Job().Key() —
// the spec's named key, which builds no operand.
func TestQueueFullRowNamesItsKey(t *testing.T) {
	fm := farm.New(1, farm.WithMaxQueue(1))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() { ts.Close(); fm.Close() })

	started, release := make(chan struct{}), make(chan struct{})
	pinned := farmtest.Start(context.Background(), fm, pinJob(0, started, release))
	<-started
	filler := farmtest.Start(context.Background(), fm, farm.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
		M: 1, K: 32, N: 4001, FCMapping: mapping.BasicFC()})
	waitFor(t, "queue to fill", func() bool { return fm.Stats().Queued == 1 })

	req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 64, N: 32}, Seed: 3}
	status, full := postSimulate(t, ts.URL, req)
	if status != http.StatusTooManyRequests || full.Code != "queue_full" {
		t.Fatalf("status %d code %q, want 429 queue_full", status, full.Code)
	}

	close(release)
	for _, wait := range []func() (farm.Result, error){pinned, filler} {
		if _, err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	status, ok := postSimulate(t, ts.URL, req)
	if status != http.StatusOK || ok.Error != "" {
		t.Fatalf("post-drain status %d error %q", status, ok.Error)
	}
	if full.Key == "" || full.Key != ok.Key || ok.Key != eagerKey(t, req) {
		t.Errorf("queue_full row key %q, successful run %q, materialised %q — want all equal", full.Key, ok.Key, eagerKey(t, req))
	}
}

// TestReplayedRowEncodesLikeLiveHit: a row replayed from a sweep journal
// and the same request answered live from the cache go through one response
// shaper, so their encodings are byte-identical once elapsed_ms is set aside.
func TestReplayedRowEncodesLikeLiveHit(t *testing.T) {
	fm := farm.New(2)
	srv := NewServer(fm)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); fm.Close() })
	reqs := sweepRequests()
	postSweepNDJSON(t, ts.URL, "sweep_id=shape", reqs)

	elapsed := regexp.MustCompile(`"elapsed_ms":[0-9.e+-]+`)
	lines := func(query string) [][]byte {
		resp, err := http.Post(ts.URL+"/batch?"+query, "application/x-ndjson", encodeNDJSON(t, reqs))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return bytes.Split(elapsed.ReplaceAll(bytes.TrimSpace(buf.Bytes()), []byte(`"elapsed_ms":0`)), []byte("\n"))
	}
	replayed, live := lines("sweep_id=shape&resume=true"), lines("")
	if n := srv.sweeps.replayed.Load(); n != int64(len(reqs)) {
		t.Fatalf("resume replayed %d rows from the journal, want %d", n, len(reqs))
	}
	if len(replayed) != len(reqs) || len(live) != len(reqs) {
		t.Fatalf("%d replayed and %d live rows, want %d each", len(replayed), len(live), len(reqs))
	}
	for i := range reqs {
		if !bytes.Equal(replayed[i], live[i]) {
			t.Errorf("row %d: replayed and live hit encode differently:\n  replayed %s\n  live     %s", i, replayed[i], live[i])
		}
		if !bytes.Contains(live[i], []byte(`"cached":true`)) {
			t.Errorf("row %d: live row was not a cache hit: %s", i, live[i])
		}
	}
}
