package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/farm"
)

// sweepRequests is a deterministic mixed sweep: conv and dense, three
// controllers, dry runs and real operands, distinct seeds.
func sweepRequests() []JobRequest {
	var reqs []JobRequest
	for i := 0; i < 6; i++ {
		reqs = append(reqs, JobRequest{
			Arch: ArchSpec{Controller: "maeri"},
			Op:   "dense", Dense: &DenseSpec{K: 16, N: 8 + i},
			Seed: int64(100 + i),
		})
		reqs = append(reqs, JobRequest{
			Arch: ArchSpec{Controller: []string{"maeri", "sigma", "tpu"}[i%3]},
			Op:   "conv2d", Conv: &ConvSpec{C: 2, H: 8, K: 4, R: 3},
			Seed: int64(200 + i),
		})
	}
	reqs = append(reqs, JobRequest{
		Arch: ArchSpec{Controller: "maeri"},
		Op:   "dense", Dense: &DenseSpec{K: 32, N: 16},
		DryRun: true,
	})
	return reqs
}

// runSweepNDJSON drives reqs through a server's streamed /batch and returns
// the per-line responses in order.
func runSweepNDJSON(t *testing.T, url string, reqs []JobRequest) []JobResponse {
	t.Helper()
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(url+"/batch", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
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

// newWorkerNode stands up one complete bifrost-serve node for a coordinator
// to dispatch to.
func newWorkerNode(t *testing.T) *httptest.Server {
	t.Helper()
	fm := farm.New(2)
	ts := httptest.NewServer(NewServer(fm))
	t.Cleanup(func() {
		ts.Close()
		fm.Close()
	})
	return ts
}

// TestCoordinatorTwoNodePeerSweepByteIdentical is the tentpole's
// acceptance: the same sweep through a single node and through a
// coordinator sharding across two peer nodes must agree on every key,
// every counter and every output checksum.
func TestCoordinatorTwoNodePeerSweepByteIdentical(t *testing.T) {
	reqs := sweepRequests()

	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	w1, w2 := newWorkerNode(t), newWorkerNode(t)
	coordFarm := farm.New(2)
	coord := httptest.NewServer(NewServer(coordFarm,
		WithPeers([]Peer{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}})))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	got := runSweepNDJSON(t, coord.URL, reqs)
	if len(got) != len(want) {
		t.Fatalf("coordinator sweep returned %d rows, want %d", len(got), len(want))
	}
	peers := map[string]int{}
	for i := range want {
		if got[i].Error != "" {
			t.Fatalf("row %d failed through coordinator: %s (code %s)", i, got[i].Error, got[i].Code)
		}
		if got[i].Key != want[i].Key {
			t.Errorf("row %d: key %s through coordinator, %s single-node", i, got[i].Key, want[i].Key)
		}
		if *got[i].Stats != *want[i].Stats {
			t.Errorf("row %d: stats diverge:\n coord %+v\nsingle %+v", i, *got[i].Stats, *want[i].Stats)
		}
		if got[i].OutputSum != want[i].OutputSum {
			t.Errorf("row %d: output checksum %v through coordinator, %v single-node", i, got[i].OutputSum, want[i].OutputSum)
		}
		if got[i].Peer == "" {
			t.Errorf("row %d: no peer label on a coordinated response", i)
		}
		peers[got[i].Peer]++
	}
	if len(peers) != 2 {
		t.Errorf("sweep used peers %v, want both nodes sharded in", peers)
	}

	// The coordinator's /metrics must expose the per-peer families.
	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{
		`bifrost_peer_dispatched_total{peer="w1"}`,
		`bifrost_peer_dispatched_total{peer="w2"}`,
		`bifrost_peer_up{peer="w1"}`,
		"bifrost_coordinator_ring_members 2",
	} {
		if !strings.Contains(string(metrics), fam) {
			t.Errorf("coordinator /metrics missing %s", fam)
		}
	}
	for name, rows := range peers {
		if v := metricValue(t, string(metrics), `bifrost_peer_dispatched_total{peer="`+name+`"}`); v != float64(rows) {
			t.Errorf("bifrost_peer_dispatched_total for %s = %v, want the %d rows it answered", name, v, rows)
		}
	}
}

// TestCoordinatorPlacementMakesNoSideCalls fronts each worker with a handler
// counting GET /stats and runs a sweep through the coordinator: placement
// decides from dispatch answers alone, so no worker is ever asked for its
// stats on the request path.
func TestCoordinatorPlacementMakesNoSideCalls(t *testing.T) {
	var statsCalls atomic.Int64
	peers := make([]Peer, 2)
	for i := range peers {
		node := newWorkerNode(t)
		counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && r.URL.Path == "/stats" {
				statsCalls.Add(1)
			}
			node.Config.Handler.ServeHTTP(w, r)
		}))
		t.Cleanup(counted.Close)
		peers[i] = Peer{Name: fmt.Sprintf("w%d", i+1), URL: counted.URL}
	}
	coordFarm := farm.New(2)
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers(peers)))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	for i, row := range runSweepNDJSON(t, coord.URL, sweepRequests()) {
		if row.Error != "" || row.Peer == "" {
			t.Fatalf("row %d: error %q peer %q, want a peer's answer", i, row.Error, row.Peer)
		}
	}
	if n := statsCalls.Load(); n != 0 {
		t.Errorf("placement scraped the workers' /stats %d times, want 0", n)
	}
}

// walkSubtest names the subtest each owner-walk scenario runs in. The walk
// once had a hedged mode beside this one; the scenarios keep the name they
// have always been reported under so their histories stay comparable.
const walkSubtest = "hedge-off"

// TestCoordinatorPeerDownRedistributes kills one of two peers: its shard
// must land on the survivor (or the local farm) with every job still
// byte-identical, and the dead peer's breaker must trip.
func TestCoordinatorPeerDownRedistributes(t *testing.T) {
	t.Run(walkSubtest, testCoordinatorPeerDownRedistributes)
}

func testCoordinatorPeerDownRedistributes(t *testing.T) {
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	alive := newWorkerNode(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens: connection refused, the hard failure mode

	coordFarm := farm.New(2, farm.WithMaxQueue(1))
	coord := httptest.NewServer(NewServer(coordFarm,
		WithPeers([]Peer{{Name: "alive", URL: alive.URL}, {Name: "dead", URL: deadURL}})))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	got := runSweepNDJSON(t, coord.URL, reqs)
	for i := range want {
		if got[i].Error != "" {
			t.Fatalf("row %d failed with a peer down: %s (code %s)", i, got[i].Error, got[i].Code)
		}
		if got[i].Key != want[i].Key || got[i].OutputSum != want[i].OutputSum {
			t.Errorf("row %d diverged with a peer down", i)
		}
		if got[i].Peer == "dead" {
			t.Errorf("row %d claims the dead peer answered it", i)
		}
	}

	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), `bifrost_peer_up{peer="alive"} 1`) {
		t.Error("alive peer not reported up")
	}
	// The dead peer owned some shard of the sweep, so it must have either
	// tripped its breaker or at least recorded failovers.
	if !strings.Contains(string(metrics), `bifrost_peer_failovers_total{peer="dead"}`) {
		t.Error("dead peer's failovers family missing from /metrics")
	}
}

// TestCoordinatorPeerBackpressurePropagates fronts a peer that answers 429:
// the coordinator must hand the client the same terminal backpressure —
// status, machine-readable code and the peer's own retry hint, not one
// derived from the coordinator's near-empty queue — and not fail over.
func TestCoordinatorPeerBackpressurePropagates(t *testing.T) {
	t.Run(walkSubtest, testCoordinatorPeerBackpressurePropagates)
}

func testCoordinatorPeerBackpressurePropagates(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/simulate" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"farm: queue full","code":"queue_full","retryable":true,"retry_after_ms":2000}`)
	}))
	defer busy.Close()

	coordFarm := farm.New(1)
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers([]Peer{{Name: "busy", URL: busy.URL}})))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	resp, err := http.Post(coord.URL+"/simulate", "application/json",
		strings.NewReader(`{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":16,"n":8},"dry_run":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure hop: HTTP %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q through the coordinator, want the peer's 2", got)
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Code != "queue_full" || !jr.Retryable || jr.RetryAfterMS != 2000 {
		t.Errorf("backpressure row = code %q retryable %v retry_after_ms %d, want queue_full, retryable, the peer's 2000",
			jr.Code, jr.Retryable, jr.RetryAfterMS)
	}
	if jr.Peer != "busy" {
		t.Errorf("backpressure row peer = %q, want busy", jr.Peer)
	}
	if v := metricValue(t, scrapeMetrics(t, coord.URL), `bifrost_peer_failovers_total{peer="busy"}`); v != 0 {
		t.Errorf("backpressure counted %v failovers, want 0", v)
	}
}

// TestCoordinatorPeerTracePropagation asks for a trace through the remote
// hop: the response must carry one trace per hop — the coordinator's
// wrapping the executing node's.
func TestCoordinatorPeerTracePropagation(t *testing.T) {
	w1 := newWorkerNode(t)
	coordFarm := farm.New(1)
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers([]Peer{{Name: "w1", URL: w1.URL}})))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	resp, err := http.Post(coord.URL+"/simulate", "application/json",
		strings.NewReader(`{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":16,"n":8},"seed":7,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if jr.Error != "" {
		t.Fatalf("traced job failed: %s", jr.Error)
	}
	if jr.Trace == nil {
		t.Fatal("no trace echoed through the coordinator")
	}
	if jr.Trace.Source != "peer" || jr.Trace.Peer != "w1" {
		t.Errorf("outer hop = source %q peer %q, want peer/w1", jr.Trace.Source, jr.Trace.Peer)
	}
	if jr.Trace.Remote == nil {
		t.Fatal("remote hop's trace missing")
	}
	if jr.Trace.Remote.Source == "" || jr.Trace.Remote.Key != jr.Key {
		t.Errorf("remote hop = %+v, want the executing node's lifecycle for key %s", jr.Trace.Remote, jr.Key)
	}
	if jr.Trace.TotalMS < jr.Trace.Remote.TotalMS {
		t.Errorf("outer hop total %.3fms < remote total %.3fms", jr.Trace.TotalMS, jr.Trace.Remote.TotalMS)
	}
}

// TestCoordinatorAllPeersDownFallsBackLocal drains the whole ring: with
// every peer unreachable the coordinator must degrade to a correct single
// node, absorbing the sweep into its local farm.
func TestCoordinatorAllPeersDownFallsBackLocal(t *testing.T) {
	t.Run(walkSubtest, testCoordinatorAllPeersDownFallsBackLocal)
}

func testCoordinatorAllPeersDownFallsBackLocal(t *testing.T) {
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	coordFarm := farm.New(2, farm.WithMaxQueue(1))
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers([]Peer{{Name: "dead", URL: deadURL}})))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	got := runSweepNDJSON(t, coord.URL, reqs)
	for i := range want {
		if got[i].Error != "" {
			t.Fatalf("row %d failed with all peers down: %s", i, got[i].Error)
		}
		if got[i].Key != want[i].Key || got[i].OutputSum != want[i].OutputSum {
			t.Errorf("row %d diverged in local-fallback mode", i)
		}
		if got[i].Peer != "" {
			t.Errorf("row %d labelled peer %q though the local farm ran it", i, got[i].Peer)
		}
	}
	resp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := metricValue(t, string(metrics), "bifrost_coordinator_local_fallbacks_total"); v != float64(len(reqs)) {
		t.Errorf("bifrost_coordinator_local_fallbacks_total = %v, want every one of the %d rows", v, len(reqs))
	}
}
