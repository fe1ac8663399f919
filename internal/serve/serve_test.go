package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/farm"
)

func newTestServer(t *testing.T) (*httptest.Server, *farm.Farm) {
	t.Helper()
	fm := farm.New(2)
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() {
		ts.Close()
		fm.Close()
	})
	return ts, fm
}

const convBody = `{
	"arch": {"controller": "maeri", "ms_size": 128},
	"op": "conv2d",
	"conv": {"c": 2, "h": 10, "k": 4, "r": 3},
	"mapping": [3, 3, 1, 2, 1, 1, 1, 1],
	"seed": 1
}`

func TestSimulateAndStats(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
	if err != nil {
		t.Fatal(err)
	}
	var first JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || first.Error != "" {
		t.Fatalf("status %d, error %q", resp.StatusCode, first.Error)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	if first.Stats == nil || first.Stats.Cycles == 0 {
		t.Fatalf("no stats in response: %+v", first)
	}
	if len(first.OutputShape) != 4 {
		t.Fatalf("output shape %v", first.OutputShape)
	}

	// The identical request must be a cache hit with identical results.
	resp, err = http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(convBody))
	if err != nil {
		t.Fatal(err)
	}
	var second JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !second.Cached {
		t.Fatal("repeated request missed the cache")
	}
	if second.Key != first.Key || second.OutputSum != first.OutputSum || *second.Stats != *first.Stats {
		t.Fatalf("cached response diverged:\nfirst:  %+v\nsecond: %+v", first, second)
	}

	// /stats must report the hit.
	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st farm.Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.Hits == 0 || st.Misses == 0 || st.Memory.Entries == 0 {
		t.Fatalf("stats did not record the hit/miss: %+v", st)
	}
	if st.HitRate() <= 0 {
		t.Fatalf("hit rate %v, want > 0", st.HitRate())
	}
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"malformed":   `{"op": `,
		"unknown op":  `{"op": "pool"}`,
		"no geometry": `{"op": "conv2d"}`,
		"bad arch":    `{"op": "dense", "dense": {"k": 4, "n": 2}, "arch": {"controller": "npu"}}`,
		"bad mapping": `{"op": "conv2d", "conv": {"c": 2, "h": 10, "k": 4, "r": 3}, "mapping": [1, 2]}`,
	} {
		resp, err := http.Post(ts.URL+"/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK || jr.Error == "" {
			t.Fatalf("%s: status %d, error %q — want a rejection", name, resp.StatusCode, jr.Error)
		}
	}
}

// repeat is an endless reader cycling through pat, for bodies too large to
// hold in memory.
type repeat struct {
	pat string
	off int
}

func (r *repeat) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		c := copy(p[n:], r.pat[r.off:])
		n, r.off = n+c, (r.off+c)%len(r.pat)
	}
	return len(p), nil
}

// TestFrontDoorBoundsHostileInput pins the front door's two bounds: a job
// whose geometry is non-positive or would materialise an absurd tensor is
// refused with 422 before anything is allocated (including when the element
// count overflows int), and a body beyond its byte bound is refused with
// 413 — while the largest real layer the paper runs stays far inside both.
func TestFrontDoorBoundsHostileInput(t *testing.T) {
	ts, fm := newTestServer(t)
	post := func(path, ctype string, body io.Reader) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	for name, body := range map[string]string{
		"dense 1e9 x 1e9":            `{"op":"dense","dense":{"k":1000000000,"n":1000000000}}`,
		"dense k*n overflows int":    `{"op":"dense","dense":{"k":4611686018427387904,"n":4}}`,
		"dense m*n over the bound":   `{"op":"dense","dense":{"m":65536,"k":8,"n":65536}}`,
		"dense negative m":           `{"op":"dense","dense":{"m":-1,"k":8,"n":8}}`,
		"dense zero k":               `{"op":"dense","dense":{"k":0,"n":8}}`,
		"dense negative n, dry run":  `{"op":"dense","dense":{"k":8,"n":-8},"dry_run":true}`,
		"conv input over the bound":  `{"op":"conv2d","conv":{"c":1024,"h":1024,"k":1,"r":1}}`,
		"conv input overflows int":   `{"op":"conv2d","conv":{"c":3037000500,"h":3037000500,"k":1,"r":1}}`,
		"conv kernel over the bound": `{"op":"conv2d","conv":{"c":64,"h":2048,"k":4096,"r":2048}}`,
		"conv output over the bound": `{"op":"conv2d","conv":{"c":1,"h":16000,"k":2,"r":1}}`,
		"conv negative channels":     `{"op":"conv2d","conv":{"c":-2,"h":8,"k":4,"r":3}}`,
		"conv negative groups":       `{"op":"conv2d","conv":{"c":2,"h":8,"k":4,"r":3,"g":-2}}`,
		"conv negative stride":       `{"op":"conv2d","conv":{"c":2,"h":8,"k":4,"r":3,"stride":-1}}`,
		"conv negative pad":          `{"op":"conv2d","conv":{"c":2,"h":8,"k":4,"r":3,"pad":-1}}`,
		"conv pad overflows int":     `{"op":"conv2d","conv":{"c":2,"h":8,"k":4,"r":3,"pad":4611686018427387904}}`,
	} {
		if got := post("/simulate", "application/json", strings.NewReader(body)); got != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d, want 422", name, got)
		}
		// The same row inside a batch is an error row, never a crash.
		if got := post("/batch", "application/x-ndjson", strings.NewReader(body+"\n")); got != http.StatusOK {
			t.Errorf("%s as an NDJSON row: HTTP %d, want 200 with an error row", name, got)
		}
	}
	if st := fm.Stats(); st.Completed != 0 || st.Panics != 0 {
		t.Errorf("a refused job reached a worker: %+v", st)
	}
	// AlexNet fc1, the largest layer the paper simulates (37.7 M weights).
	if got := post("/simulate", "application/json",
		strings.NewReader(`{"op":"dense","dense":{"k":9216,"n":4096},"dry_run":true}`)); got != http.StatusOK {
		t.Errorf("AlexNet fc1 geometry: HTTP %d, want 200", got)
	}

	blank := strings.Repeat(" ", 1023)
	for name, req := range map[string]struct {
		path, ctype string
		body        io.Reader
	}{
		"simulate body":     {"/simulate", "application/json", io.LimitReader(&repeat{pat: blank}, maxJobBody+1)},
		"batch JSON body":   {"/batch", "application/json", io.LimitReader(&repeat{pat: blank}, maxBatchBody+1)},
		"batch NDJSON body": {"/batch", "application/x-ndjson", io.LimitReader(&repeat{pat: blank + "\n"}, maxBatchBody+1)},
		"one NDJSON line":   {"/batch", "application/x-ndjson", io.LimitReader(&repeat{pat: strings.Repeat("x", 1023)}, maxJobBody+1)},
	} {
		if testing.Short() && strings.HasPrefix(name, "batch") {
			continue // 64 MiB through the race detector takes seconds
		}
		if got := post(req.path, req.ctype, req.body); got != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s: HTTP %d, want 413", name, got)
		}
	}
}

func TestBatchJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	body := `{"jobs": [` + convBody + `,` + convBody + `,
		{"arch": {"controller": "sigma", "sparsity": 50},
		 "op": "dense", "dense": {"k": 32, "n": 16}, "seed": 2}]}`
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(batch.Results))
	}
	for i, r := range batch.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
	}
	// The duplicated conv job must coalesce: at most 2 distinct sims ran.
	if batch.Results[0].Key != batch.Results[1].Key {
		t.Fatal("identical jobs produced different keys")
	}
	if batch.Results[0].OutputSum != batch.Results[1].OutputSum {
		t.Fatal("identical jobs produced different outputs")
	}
	if batch.Stats.Completed > 2 {
		t.Fatalf("duplicate job was not deduplicated: %+v", batch.Stats)
	}
	if batch.Stats.Hits+batch.Stats.Deduped == 0 {
		t.Fatalf("batch reported no coalescing: %+v", batch.Stats)
	}
}

func TestBatchNDJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	lines := []string{
		`{"op": "dense", "dense": {"k": 16, "n": 8}, "seed": 1}`,
		``, // blank lines are skipped
		`{"op": "dense", "dense": {"k": 16, "n": 8}, "fc_mapping": [4, 2, 1], "seed": 1}`,
	}
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var results []JobResponse
	for dec.More() {
		var r JobResponse
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
		if r.Stats == nil || r.Stats.Cycles == 0 {
			t.Fatalf("result %d has no cycles", i)
		}
	}
	// Different mappings: the tuned one must not be slower than basic here.
	if results[1].Stats.Cycles >= results[0].Stats.Cycles {
		t.Fatalf("tiled FC mapping (%d cycles) should beat basic (%d cycles)",
			results[1].Stats.Cycles, results[0].Stats.Cycles)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
