package serve

import (
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// scrapeMetrics fetches the coordinator's /metrics body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, resp)
}

// metricValue extracts one sample (full name including labels) from an
// exposition body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s missing from /metrics", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

// TestCoordinatorRingSkipsDrainingPeer drains one of two workers and runs a
// sweep through the coordinator: the peer's in-flight 503 "draining" answer
// must pull it off the ring, every row must land elsewhere byte-identically
// with zero error rows, and the drain must not feed the peer's breaker.
func TestCoordinatorRingSkipsDrainingPeer(t *testing.T) {
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	w1, w2 := newWorkerNode(t), newWorkerNode(t)
	coordFarm := farm.New(2)
	coord := httptest.NewServer(NewServer(coordFarm,
		WithPeers([]Peer{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}})))
	t.Cleanup(func() { coord.Close(); coordFarm.Close() })

	// Drain w2 directly, as an operator would before taking it down.
	dresp, err := http.Post(w2.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	got := runSweepNDJSON(t, coord.URL, reqs)
	assertSweepRows(t, "sweep with w2 draining", want, got)
	for i := range got {
		if got[i].Peer == "w2" {
			t.Errorf("row %d answered by the draining peer", i)
		}
	}

	metrics := scrapeMetrics(t, coord.URL)
	if v := metricValue(t, metrics, "bifrost_coordinator_ring_members"); v != 1 {
		t.Errorf("ring members %v with one peer draining, want 1", v)
	}
	if v := metricValue(t, metrics, `bifrost_peer_draining{peer="w2"}`); v != 1 {
		t.Errorf("bifrost_peer_draining for w2 = %v, want 1", v)
	}
	if v := metricValue(t, metrics, `bifrost_peer_up{peer="w2"}`); v != 0 {
		t.Errorf("bifrost_peer_up for w2 = %v, want 0 while draining", v)
	}
	if v := metricValue(t, metrics, `bifrost_peer_breaker_trips_total{peer="w2"}`); v != 0 {
		t.Errorf("draining fed w2's breaker: %v trips, want 0", v)
	}
}

// TestCoordinatorPeerHedgedDispatch shards a sweep across a fast worker and
// a slow one (250ms per /simulate) with hedging armed at 40ms: the slow
// peer's rows must be rescued by hedges — byte-identical, zero error rows —
// and the cancelled losers must not trip the slow peer's breaker.
func TestCoordinatorPeerHedgedDispatch(t *testing.T) {
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	fast := newWorkerNode(t)
	backend := newWorkerNode(t)
	burl, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(burl)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/simulate" {
			time.Sleep(250 * time.Millisecond)
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	coordFarm := farm.New(2)
	coord := httptest.NewServer(NewServer(coordFarm,
		WithPeers([]Peer{{Name: "fast", URL: fast.URL}, {Name: "slow", URL: slow.URL}}),
		WithHedgeAfter(40*time.Millisecond)))
	t.Cleanup(func() { coord.Close(); coordFarm.Close() })

	start := time.Now()
	got := runSweepNDJSON(t, coord.URL, reqs)
	elapsed := time.Since(start)
	assertSweepRows(t, "hedged sweep", want, got)

	metrics := scrapeMetrics(t, coord.URL)
	hedges := metricValue(t, metrics, "bifrost_peer_hedges_total")
	wins := metricValue(t, metrics, "bifrost_peer_hedge_wins_total")
	if hedges == 0 {
		t.Errorf("no hedges fired against a 250ms peer with -hedge-after 40ms (sweep took %s)", elapsed)
	}
	if wins == 0 {
		t.Error("no hedge ever won against a 250ms peer")
	}
	if wins > hedges {
		t.Errorf("hedge wins %v exceed hedges %v", wins, hedges)
	}
	// Losing the race is not a failure: the slow peer must stay admitted.
	if v := metricValue(t, metrics, `bifrost_peer_breaker_trips_total{peer="slow"}`); v != 0 {
		t.Errorf("cancelled hedge losers tripped the slow peer's breaker %v times", v)
	}
	if v := metricValue(t, metrics, "bifrost_coordinator_ring_members"); v != 2 {
		t.Errorf("ring members %v after hedged sweep, want 2", v)
	}
}

// TestCoordinatorPeerProbeFlipsRing toggles a peer's /healthz and watches
// the active prober flip it off the ring after consecutive failures — and
// back on when it recovers.
func TestCoordinatorPeerProbeFlipsRing(t *testing.T) {
	farmtest.NoGoroutineLeak(t) // the probe loop must stop with the server
	w1 := newWorkerNode(t)
	flakyFarm := farm.New(1)
	flakyNode := NewServer(flakyFarm)
	var sick atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick.Load() && r.URL.Path == "/healthz" {
			http.Error(w, "sick", http.StatusInternalServerError)
			return
		}
		flakyNode.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { flaky.Close(); flakyFarm.Close() })

	coordFarm := farm.New(2)
	api := NewServer(coordFarm,
		WithPeers([]Peer{{Name: "w1", URL: w1.URL}, {Name: "flaky", URL: flaky.URL}}),
		WithPeerProbes(15*time.Millisecond))
	coord := httptest.NewServer(api)
	t.Cleanup(func() { coord.Close(); api.Close(); coordFarm.Close() })

	waitRing := func(members float64, context string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if metricValue(t, scrapeMetrics(t, coord.URL), "bifrost_coordinator_ring_members") == members {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s: ring never reached %v members", context, members)
	}

	waitRing(2, "healthy start")
	sick.Store(true)
	waitRing(1, "flaky peer failing probes")
	if v := metricValue(t, scrapeMetrics(t, coord.URL), `bifrost_peer_up{peer="flaky"}`); v != 0 {
		t.Errorf("bifrost_peer_up for the downed peer = %v, want 0", v)
	}
	sick.Store(false)
	waitRing(2, "flaky peer recovered")
	if v := metricValue(t, scrapeMetrics(t, coord.URL), `bifrost_peer_up{peer="flaky"}`); v != 1 {
		t.Errorf("bifrost_peer_up for the recovered peer = %v, want 1", v)
	}
}
