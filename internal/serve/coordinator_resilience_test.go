package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
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
// sweep through the coordinator: the peer's 503 "draining" answers are
// failovers that trip its breaker exactly once, which takes it off the
// ring, and every row lands elsewhere byte-identically with zero error rows.
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
	if v := metricValue(t, metrics, `bifrost_peer_up{peer="w2"}`); v != 0 {
		t.Errorf("bifrost_peer_up for w2 = %v, want 0 while draining", v)
	}
	if v := metricValue(t, metrics, `bifrost_peer_breaker_trips_total{peer="w2"}`); v != 1 {
		t.Errorf("the drain tripped w2's breaker %v times, want 1", v)
	}
	// Once w2's breaker is open, placements that reach it skip it.
	if v := metricValue(t, metrics, `bifrost_peer_skipped_total{peer="w2"}`); v == 0 {
		t.Error("no placement skipped the quarantined w2")
	}
	if v := metricValue(t, metrics, `bifrost_peer_skipped_total{peer="w1"}`); v != 0 {
		t.Errorf("placements skipped the healthy w1 %v times", v)
	}
}

// TestCoordinatorProbesFeedBreaker pins that a peer has one health state,
// its breaker, fed by /healthz probes and dispatch answers alike. Three
// failed probes open it; so do three failed dispatches with probing off.
// Either way placement skips the peer, bifrost_coordinator_ring_members is
// the sum of bifrost_peer_up in every scrape, and one successful probe
// re-admits the peer. Probes are driven by hand: no ticker, no sleep.
func TestCoordinatorProbesFeedBreaker(t *testing.T) {
	for _, tc := range []struct {
		name string
		trip func(t *testing.T, c *coordinator, ps *peerState, rows []JobRequest)
	}{
		{"probes", func(t *testing.T, c *coordinator, ps *peerState, _ []JobRequest) {
			for i := 0; i < farm.DefaultRetryPolicy().TripAfter; i++ {
				c.probe(ps)
			}
		}},
		{"dispatches", func(t *testing.T, c *coordinator, ps *peerState, rows []JobRequest) {
			for _, req := range rows[:farm.DefaultRetryPolicy().TripAfter] {
				if resp := dispatchRow(context.Background(), c.s, req); resp.Error != "" || resp.Peer != "good" {
					t.Fatalf("a row failed over from the sick peer came back %+v, want answered by good", resp)
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			good := newWorkerNode(t)
			sickFarm := farm.New(1)
			sickNode := NewServer(sickFarm)
			var healthzDown, simulateDown atomic.Bool
			var simulates atomic.Int64
			sick := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/healthz" && healthzDown.Load(),
					r.URL.Path == "/simulate" && simulateDown.Load():
					http.Error(w, "sick", http.StatusInternalServerError)
					return
				case r.URL.Path == "/simulate":
					simulates.Add(1)
				}
				sickNode.ServeHTTP(w, r)
			}))
			t.Cleanup(func() { sick.Close(); sickFarm.Close() })

			coordFarm := farm.New(1)
			srv := NewServer(coordFarm, WithPeers([]Peer{{Name: "good", URL: good.URL}, {Name: "sick", URL: sick.URL}}))
			t.Cleanup(func() { srv.Close(); coordFarm.Close() })
			c, ps := srv.coord, srv.coord.peers["sick"]

			// Rows whose first owner is the sick peer.
			var rows []JobRequest
			for seed := int64(0); len(rows) < 5; seed++ {
				req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 16, N: 8}, DryRun: true, Seed: seed}
				if owners, err := place(srv, req); err != nil {
					t.Fatal(err)
				} else if owners[0] == "sick" {
					rows = append(rows, req)
				}
			}
			scrape := func(wantUp float64) {
				t.Helper()
				var buf bytes.Buffer
				c.writeMetrics(&buf)
				m := buf.String()
				up := metricValue(t, m, `bifrost_peer_up{peer="sick"}`)
				sum := up + metricValue(t, m, `bifrost_peer_up{peer="good"}`)
				if members := metricValue(t, m, "bifrost_coordinator_ring_members"); members != sum {
					t.Errorf("ring members %v, want the sum of peer_up %v", members, sum)
				}
				if up != wantUp {
					t.Errorf("bifrost_peer_up for the sick peer = %v, want %v", up, wantUp)
				}
			}

			scrape(1)
			healthzDown.Store(true)
			simulateDown.Store(true)
			tc.trip(t, c, ps, rows)
			if !ps.breaker.Open() || ps.breaker.Trips() != 1 {
				t.Fatalf("breaker open %v after %d trips, want open after 1", ps.breaker.Open(), ps.breaker.Trips())
			}
			scrape(0)

			// Placement skips the quarantined peer: no probe slot is due yet.
			healthzDown.Store(false)
			simulateDown.Store(false)
			if resp := dispatchRow(context.Background(), c.s, rows[3]); resp.Error != "" || resp.Peer != "good" {
				t.Fatalf("row placed with its first owner quarantined came back %+v, want answered by good", resp)
			}
			if n := simulates.Load(); n != 0 {
				t.Fatalf("the quarantined peer answered %d dispatches, want 0", n)
			}

			// One healthy probe re-admits it.
			c.probe(ps)
			scrape(1)
			if resp := dispatchRow(context.Background(), c.s, rows[4]); resp.Error != "" || resp.Peer != "sick" {
				t.Fatalf("row placed on the re-admitted peer came back %+v, want answered by sick", resp)
			}
		})
	}
}

// TestCoordinatorWalkIsSequential sends a row with a 150ms deadline to a
// first owner that stalls past it, as many times as it takes a breaker to
// trip. The walk runs on the caller's goroutine and tries one owner at a
// time, so each row comes back a deadline error, the next owner never hears
// of it, the stalled owner's breaker is not fed (the deadline was the
// row's, not the peer's fault), and nothing outlives the requests.
func TestCoordinatorWalkIsSequential(t *testing.T) {
	farmtest.NoGoroutineLeak(t)
	var calls [2]atomic.Int64
	stacks := make(chan string, 1)
	peers := make([]Peer, 2)
	for i := range peers {
		stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/simulate" {
				http.NotFound(w, r)
				return
			}
			calls[i].Add(1)
			io.Copy(io.Discard, r.Body) // a read body lets the server see the hang-up
			buf := make([]byte, 1<<20)
			select {
			case stacks <- string(buf[:runtime.Stack(buf, true)]):
			default:
			}
			select {
			case <-r.Context().Done(): // the coordinator gave up on this owner
			case <-time.After(5 * time.Second):
			}
		}))
		t.Cleanup(stall.Close)
		peers[i] = Peer{Name: fmt.Sprintf("w%d", i+1), URL: stall.URL}
	}
	coordFarm := farm.New(1)
	api := NewServer(coordFarm, WithPeers(peers))
	coord := httptest.NewServer(api)
	t.Cleanup(func() { coord.Close(); api.Close(); coordFarm.Close() })

	rows := farm.DefaultRetryPolicy().TripAfter
	for i := 0; i < rows; i++ {
		start := time.Now()
		resp, err := http.Post(coord.URL+"/simulate", "application/json",
			strings.NewReader(`{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":16,"n":8},"dry_run":true,"timeout_ms":150}`))
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout || jr.Code != "deadline" {
			t.Fatalf("row %d: HTTP %d code %q after %s, want 504 deadline", i, resp.StatusCode, jr.Code, time.Since(start))
		}
	}
	if c0, c1 := calls[0].Load(), calls[1].Load(); min(c0, c1) != 0 || c0+c1 != int64(rows) {
		t.Errorf("owners received w1 %d, w2 %d /simulate calls, want all %d on the first owner", c0, c1, rows)
	}
	// The stalled dispatch must be on the goroutine that called run, not on
	// one that run started for it.
	for _, g := range strings.Split(<-stacks, "\n\n") {
		if strings.Contains(g, "serve.(*coordinator).forward(") && !strings.Contains(g, "serve.(*coordinator).run(") {
			t.Errorf("a dispatch ran off the caller's goroutine:\n%s", g)
		}
	}
	metrics := scrapeMetrics(t, coord.URL)
	for _, p := range peers {
		if v := metricValue(t, metrics, `bifrost_peer_breaker_trips_total{peer="`+p.Name+`"}`); v != 0 {
			t.Errorf("the rows' deadlines tripped %s's breaker %v times", p.Name, v)
		}
	}
}

// TestCoordinatorPeerTimeoutFailsOver proves WithPeerTimeout: a peer that
// accepts the connection but never sends response headers is given up on
// within the bound, and the row fails over to the next owner and is
// answered there.
func TestCoordinatorPeerTimeoutFailsOver(t *testing.T) {
	hung, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn // accepted, read from by no one, never answered
	go func() {
		for {
			conn, err := hung.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		hung.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	})
	good := newWorkerNode(t)

	const bound = 100 * time.Millisecond
	coordFarm := farm.New(1)
	api := NewServer(coordFarm, WithPeerTimeout(bound),
		WithPeers([]Peer{{Name: "hung", URL: "http://" + hung.Addr().String()}, {Name: "good", URL: good.URL}}))
	coord := httptest.NewServer(api)
	t.Cleanup(func() { coord.Close(); api.Close(); coordFarm.Close() })

	// A row whose first owner is the hung peer.
	req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 16, N: 8}, DryRun: true}
	for {
		owners, err := place(api, req)
		if err != nil {
			t.Fatal(err)
		}
		if owners[0] == "hung" {
			break
		}
		req.Dense.N++
	}
	start := time.Now()
	code, jr := postSimulate(t, coord.URL, req)
	if elapsed := time.Since(start); elapsed > 30*bound {
		t.Errorf("failover took %s with a %s peer timeout", elapsed, bound)
	}
	if code != http.StatusOK || jr.Peer != "good" {
		t.Fatalf("HTTP %d from peer %q (%s), want 200 from the next owner", code, jr.Peer, jr.Error)
	}
	if v := metricValue(t, scrapeMetrics(t, coord.URL), `bifrost_peer_failovers_total{peer="hung"}`); v != 1 {
		t.Errorf("failovers off the hung peer = %v, want 1", v)
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
