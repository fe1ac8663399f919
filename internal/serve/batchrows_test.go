package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// TestBatchNDJSONErrorRowTaxonomy is the regression test for opaque stream
// errors: an NDJSON row that fails must carry the same machine-readable
// code/retryable fields the single-job path expresses via HTTP status,
// because a streamed row has no status of its own.
func TestBatchNDJSONErrorRowTaxonomy(t *testing.T) {
	ts, _ := newTestServer(t)

	body := `{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":16,"n":8},"dry_run":true}
{"arch":{"controller":"maeri"},"op":"warp_drive"}
{"arch":{"controller":"nonsense"},"op":"dense","dense":{"k":16,"n":8}}
`
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []JobResponse
	dec := json.NewDecoder(resp.Body)
	for {
		var jr JobResponse
		if err := dec.Decode(&jr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, jr)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	if rows[0].Error != "" || rows[0].Code != "" {
		t.Errorf("healthy row got error fields: %+v", rows[0])
	}
	for i, row := range rows[1:] {
		if row.Error == "" {
			t.Fatalf("bad row %d reported no error", i+1)
		}
		if row.Code != "invalid" {
			t.Errorf("bad row %d: code %q, want invalid", i+1, row.Code)
		}
		if row.Retryable {
			t.Errorf("bad row %d marked retryable: resubmitting an invalid job cannot succeed", i+1)
		}
	}
}

// TestBatchFanoutRespectsQueueBound is the regression test for the fan-out
// width ignoring the queue bound: a server over a farm with WithMaxQueue(1)
// used to launch 2*workers concurrent submissions, manufacturing
// ErrQueueFull rows out of its own parallelism. The width is now clamped to
// the bound, so a large batch must stream back with zero rejections.
func TestBatchFanoutRespectsQueueBound(t *testing.T) {
	fm := farm.New(2, farm.WithMaxQueue(1))
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() {
		ts.Close()
		fm.Close()
	})

	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	const batch = 24
	for i := 0; i < batch; i++ {
		if err := enc.Encode(JobRequest{
			Arch: ArchSpec{Controller: "maeri"},
			Op:   "dense", Dense: &DenseSpec{K: 16, N: 8 + i},
			DryRun: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/batch", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rows := 0
	dec := json.NewDecoder(resp.Body)
	for {
		var jr JobResponse
		if err := dec.Decode(&jr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if jr.Error != "" {
			t.Errorf("row %d failed: %s (code %s)", rows, jr.Error, jr.Code)
		}
		rows++
	}
	if rows != batch {
		t.Fatalf("streamed %d rows, want %d", rows, batch)
	}
	if st := fm.Stats(); st.Rejected != 0 {
		t.Errorf("batch fan-out manufactured %d rejections over a bound-1 queue", st.Rejected)
	}
}

// TestBatchFourFormsOnePipeline pins the four ways to ask for a batch —
// JSON or NDJSON, plain or under a sweep_id — as one pipeline: the same
// sweep with an invalid job in the middle comes back row for row equal to
// /simulate in submission order, the error row in place and the rows after
// it unaffected, and the NDJSON forms deliver row 0 while later rows are
// still uncomputed. Each form gets a fresh one-worker node, so its rows are
// cold; the streamed forms slow its disk tier to 20ms a touch, so they
// complete far apart.
func TestBatchFourFormsOnePipeline(t *testing.T) {
	const bad = 6
	reqs := slices.Insert(sweepRequests(), bad, JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "warp_drive"})
	single, _ := newTestServer(t)
	want := make([]JobResponse, len(reqs))
	for i, req := range reqs {
		_, want[i] = postSimulate(t, single.URL, req)
	}
	if want[bad].Error == "" {
		t.Fatal("/simulate accepted the invalid job")
	}

	for _, form := range []struct {
		name, query string
		ndjson      bool
	}{
		{"json", "", false},
		{"json-sweep", "?sweep_id=four", false},
		{"ndjson", "", true},
		{"ndjson-sweep", "?sweep_id=four", true},
	} {
		t.Run(form.name, func(t *testing.T) {
			ds, err := farm.NewDiskStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			var slow farmtest.FaultPolicy
			if form.ndjson {
				slow.Latency = 20 * time.Millisecond
			}
			fs := farmtest.NewFaultStore(ds, slow)
			fm := farm.New(1, farm.WithDiskStore(fs))
			ts := httptest.NewServer(NewServer(fm))
			t.Cleanup(func() { ts.Close(); fm.Close() })

			var got []JobResponse
			if form.ndjson {
				resp, err := http.Post(ts.URL+"/batch"+form.query, "application/x-ndjson", encodeNDJSON(t, reqs))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				dec := json.NewDecoder(resp.Body)
				for {
					var jr JobResponse
					if err := dec.Decode(&jr); err == io.EOF {
						break
					} else if err != nil {
						t.Fatal(err)
					}
					if len(got) == 0 {
						if n := fm.Stats().Completed; n >= int64(len(reqs)-1) {
							t.Errorf("row 0 arrived with all %d simulations finished: the stream buffered the batch", n)
						}
					}
					got = append(got, jr)
				}
			} else {
				body, err := json.Marshal(BatchRequest{Jobs: reqs})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/batch"+form.query, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var batch BatchResponse
				if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
					t.Fatal(err)
				}
				got = batch.Results
			}

			if len(got) != len(want) {
				t.Fatalf("%d rows, want %d", len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Key != w.Key || g.Error != w.Error || g.Code != w.Code || g.OutputSum != w.OutputSum ||
					(g.Stats == nil) != (w.Stats == nil) || (w.Stats != nil && *g.Stats != *w.Stats) {
					t.Errorf("row %d differs from /simulate:\n got %+v\nwant %+v", i, g, w)
				}
			}
		})
	}
}
