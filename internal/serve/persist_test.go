package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// persistBatch is a small sweep covering both operators, all three
// architectures and a duplicate (which must coalesce).
const persistBatch = `{"jobs": [
	{"arch": {"controller": "maeri", "ms_size": 128}, "op": "conv2d",
	 "conv": {"c": 2, "h": 10, "k": 4, "r": 3}, "mapping": [3, 3, 1, 2, 1, 1, 1, 1], "seed": 1},
	{"arch": {"controller": "sigma", "sparsity": 50}, "op": "conv2d",
	 "conv": {"c": 2, "h": 8, "k": 4, "r": 3}, "seed": 2},
	{"arch": {"controller": "tpu"}, "op": "dense", "dense": {"k": 32, "n": 16}, "seed": 3},
	{"arch": {"controller": "maeri"}, "op": "dense", "dense": {"k": 16, "n": 8}, "dry_run": true},
	{"arch": {"controller": "maeri", "ms_size": 128}, "op": "conv2d",
	 "conv": {"c": 2, "h": 10, "k": 4, "r": 3}, "mapping": [3, 3, 1, 2, 1, 1, 1, 1], "seed": 1}
]}`

const persistBatchUnique = 4 // distinct jobs in persistBatch

func postBatch(t *testing.T, url, body string) BatchResponse {
	t.Helper()
	resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	for i, r := range batch.Results {
		if r.Error != "" {
			t.Fatalf("result %d: %s", i, r.Error)
		}
	}
	return batch
}

// diffResponses compares everything deterministic about two responses; the
// Cached flag and timing are transport state.
func diffResponses(t *testing.T, context string, a, b []JobResponse) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", context, len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Errorf("%s: result %d keys differ: %s vs %s", context, i, a[i].Key, b[i].Key)
		}
		if *a[i].Stats != *b[i].Stats {
			t.Errorf("%s: result %d stats differ:\n  %+v\n  %+v", context, i, *a[i].Stats, *b[i].Stats)
		}
		if fmt.Sprint(a[i].OutputShape) != fmt.Sprint(b[i].OutputShape) {
			t.Errorf("%s: result %d shapes differ: %v vs %v", context, i, a[i].OutputShape, b[i].OutputShape)
		}
		if a[i].OutputSum != b[i].OutputSum {
			t.Errorf("%s: result %d output sums differ: %v vs %v", context, i, a[i].OutputSum, b[i].OutputSum)
		}
	}
}

// TestColdProcessServesWarmDiskCache is the PR's acceptance scenario: a
// server whose farm points at a warm -cache-dir answers a previously
// computed /batch request with zero simulator executions — every submission
// a disk hit, zero misses — and byte-identical responses.
func TestColdProcessServesWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	open := func() (*httptest.Server, *farm.Farm) {
		ds, err := farm.NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fm := farm.New(2, farm.WithDiskStore(ds))
		return httptest.NewServer(NewServer(fm)), fm
	}

	// "Process" 1: compute and persist.
	ts1, fm1 := open()
	warm := postBatch(t, ts1.URL, persistBatch)
	ts1.Close()
	fm1.Close()
	if warm.Stats.Completed != persistBatchUnique {
		t.Fatalf("warm process completed %d simulations, want %d", warm.Stats.Completed, persistBatchUnique)
	}

	// "Process" 2: a cold farm on the warm directory.
	ts2, fm2 := open()
	defer ts2.Close()
	defer fm2.Close()
	cold := postBatch(t, ts2.URL, persistBatch)
	diffResponses(t, "cold replay vs warm", warm.Results, cold.Results)
	for i, r := range cold.Results {
		if !r.Cached {
			t.Errorf("cold result %d not served from cache", i)
		}
	}
	st := cold.Stats
	if st.Misses != 0 || st.Completed != 0 {
		t.Fatalf("cold process ran simulations: %+v", st)
	}
	if st.DiskHits != persistBatchUnique {
		t.Fatalf("disk hits = %d, want %d: %+v", st.DiskHits, persistBatchUnique, st)
	}
	if st.Disk == nil || st.Disk.Hits != persistBatchUnique || st.Disk.Bytes == 0 {
		t.Fatalf("per-tier disk stats missing or wrong: %+v", st.Disk)
	}

	// The responses must also match a fresh farmless reference, via the
	// shared differential harness.
	var reqs BatchRequest
	if err := json.Unmarshal([]byte(persistBatch), &reqs); err != nil {
		t.Fatal(err)
	}
	jobs := make([]farm.Job, len(reqs.Jobs))
	for i, r := range reqs.Jobs {
		job, err := r.Job()
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	fresh := farmtest.RunFresh(t, jobs)
	for i, res := range fresh {
		if res.Stats != *cold.Results[i].Stats {
			t.Errorf("cold result %d diverged from the fresh reference:\n  fresh: %+v\n  cold:  %+v",
				i, res.Stats, *cold.Results[i].Stats)
		}
		if res.Out != nil {
			var sum float64
			for _, v := range res.Out.Data() {
				sum += float64(v)
			}
			if sum != cold.Results[i].OutputSum {
				t.Errorf("cold result %d output sum %v, fresh reference %v", i, cold.Results[i].OutputSum, sum)
			}
		}
	}

	// /stats must expose the per-tier counters over HTTP.
	resp, err := http.Get(ts2.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var httpStats farm.Stats
	if err := json.NewDecoder(resp.Body).Decode(&httpStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if httpStats.Disk == nil || httpStats.Disk.Hits != persistBatchUnique {
		t.Fatalf("/stats did not report the disk tier: %+v", httpStats)
	}
}

// TestServeBoundedCacheStillCorrect runs the same batch twice against a
// server whose memory tier holds a single entry: most of the second pass is
// recomputed (or disk-served) and responses must stay byte-identical.
func TestServeBoundedCacheStillCorrect(t *testing.T) {
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fm := farm.New(2, farm.WithMaxEntries(1), farm.WithDiskStore(ds))
	ts := httptest.NewServer(NewServer(fm))
	defer ts.Close()
	defer fm.Close()

	first := postBatch(t, ts.URL, persistBatch)
	second := postBatch(t, ts.URL, persistBatch)
	diffResponses(t, "bounded second pass", first.Results, second.Results)
	st := second.Stats
	if st.Memory.Evictions == 0 {
		t.Fatalf("one-entry memory tier never evicted: %+v", st)
	}
	if st.CacheEntries > 1 {
		t.Fatalf("memory tier over bound: %+v", st)
	}
	// The disk tier backs up what memory evicts: the second pass must not
	// have re-simulated anything.
	if st.Completed != persistBatchUnique {
		t.Fatalf("evicted entries were re-simulated instead of disk-served: %+v", st)
	}
}
