package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// replNode is one complete bifrost-serve worker with a replicated result
// tier: disk store, replica members over the peer wire protocol, and a farm
// serving /batch for a coordinator.
type replNode struct {
	ts     *httptest.Server
	fm     *farm.Farm
	repl   *farm.ReplicatedStore
	name   string // ring identity
	addr   string // listen address, for a restart on the same port
	killed bool
}

// kill hard-closes the node's HTTP server: in-flight connections are torn
// down and new ones refused — the closest an in-process test gets to
// kill -9. The node's farm is left un-drained, like a dead process.
func (n *replNode) kill() {
	if n.killed {
		return
	}
	n.killed = true
	n.ts.CloseClientConnections()
	n.ts.Close()
}

// newReplCluster stands up n workers whose replicated stores are cross-wired
// over real HTTP peer stores, each remote member behind its own breaker.
// Listeners are pre-bound so every node knows its peers' addresses before any
// store is built. Ring names are fixed (node0…), not the ephemeral addresses:
// placement of a sweep's rows is then the same on every run.
func newReplCluster(t *testing.T, n, replicas int) []*replNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	names, addrs := make([]string, n), make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		names[i], addrs[i] = fmt.Sprintf("node%d", i), l.Addr().String()
	}
	nodes := make([]*replNode, n)
	for i := range nodes {
		var members []farm.ReplicaMember
		for j := range nodes {
			if j == i {
				continue
			}
			members = append(members, farm.ReplicaMember{
				Name:  names[j],
				Store: farm.NewRetryStore(farm.NewPeerStore("http://"+addrs[j]), farmtest.TestRetryPolicy()),
			})
		}
		ds, err := farm.NewDiskStore(filepath.Join(t.TempDir(), "cache"), 0)
		if err != nil {
			t.Fatal(err)
		}
		repl := farm.NewReplicatedStore(ds, names[i], replicas, members)
		fm := farm.New(2, farm.WithDiskStore(repl))
		ts := httptest.NewUnstartedServer(NewServer(fm, WithReplicatedStore(repl)))
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		nodes[i] = &replNode{ts: ts, fm: fm, repl: repl, name: names[i], addr: addrs[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.kill()
			nd.fm.Close()
		}
	})
	return nodes
}

// TestChaosThreeNodeKillServedFromReplicas is the durable tier's
// acceptance: a three-node replicated cluster warms a sweep, loses one node
// kill -9-style mid-sweep, and the re-run still returns zero error rows and
// byte-identical output — every row served from a surviving replica, not
// recomputed. No replica is ever read over the wire: the coordinator fails
// the dead node's rows over to the next ring owner, which wrote its own
// copy during the warm pass and answers from its local tier.
func TestChaosThreeNodeKillServedFromReplicas(t *testing.T) {
	farmtest.NoGoroutineLeak(t)
	reqs := sweepRequests()
	single, _ := newTestServer(t)
	want := runSweepNDJSON(t, single.URL, reqs)

	nodes := newReplCluster(t, 3, 2)
	coordFarm := farm.New(2)
	peers := make([]Peer, len(nodes))
	for i, nd := range nodes {
		peers[i] = Peer{Name: nd.name, URL: nd.ts.URL}
	}
	coord := httptest.NewServer(NewServer(coordFarm, WithPeers(peers)))
	t.Cleanup(func() {
		coord.Close()
		coordFarm.Close()
	})

	// Warm pass: every row computed once somewhere, replicated to R=2 owners.
	warm := runSweepNDJSON(t, coord.URL, reqs)
	assertSweepRows(t, "three-node warm sweep", want, warm)
	victim := nodes[2]
	served := map[string]int{}
	for _, row := range warm {
		served[row.Peer]++
	}
	if len(served) != 3 {
		t.Fatalf("warm sweep used peers %v, want all three", served)
	}
	executed := func() int64 {
		var total int64
		for _, nd := range nodes {
			if !nd.killed {
				total += nd.fm.Stats().Completed
			}
		}
		return total
	}
	survivorsBefore := nodes[0].fm.Stats().Completed + nodes[1].fm.Stats().Completed

	// Chaos pass: stream the same sweep again and kill a node after the
	// second row is on the wire.
	resp, err := http.Post(coord.URL+"/batch", "application/x-ndjson", encodeNDJSON(t, reqs))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chaos sweep: HTTP %d", resp.StatusCode)
	}
	var got []JobResponse
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var jr JobResponse
			if uerr := json.Unmarshal(line, &jr); uerr != nil {
				t.Fatalf("row %d: %v", len(got), uerr)
			}
			got = append(got, jr)
			if len(got) == 2 {
				victim.kill()
			}
		}
		if err != nil {
			break
		}
	}
	assertSweepRows(t, "post-kill sweep", want, got)

	// Zero recomputation: the survivors answered the dead node's shard from
	// their replicas — no simulator ran.
	if delta := executed() - survivorsBefore; delta != 0 {
		t.Fatalf("sweep after node loss recomputed %d rows, want 0", delta)
	}
	// Every row comes from a cache tier; rows the dead node answered before
	// the kill keep its label, but nothing fails over to it afterwards.
	for i, row := range got {
		if !row.Cached {
			t.Errorf("post-kill row %d not served from a cache tier", i)
		}
	}

	// With R=2 over two survivors plus self, replication is intact: the
	// survivors must keep advertising ready.
	for _, nd := range nodes[:2] {
		rz, err := http.Get(nd.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		rz.Body.Close()
		if rz.StatusCode != http.StatusOK {
			t.Errorf("survivor %s not ready after peer loss: HTTP %d", nd.name, rz.StatusCode)
		}
	}
}

// TestChaosReplicaRejoinsAfterPeerRestart pins "rejoin on recovery" end to
// end on the smallest cluster that can lose durability: a two-node R=2 pair.
// Losing the peer trips its replica breaker and /readyz reports
// replication_degraded; once the peer is back on the same address, ordinary
// traffic — the replica write every fresh result fans out — carries the
// half-open probe that closes the breaker, and /readyz recovers with no
// restart.
func TestChaosReplicaRejoinsAfterPeerRestart(t *testing.T) {
	farmtest.NoGoroutineLeak(t)
	nodes := newReplCluster(t, 2, 2)
	front, peer := nodes[0], nodes[1]

	job := 0
	simulate := func() { // one fresh job: a local miss and a replicated Put on front
		t.Helper()
		job++
		resp, err := http.Post(front.ts.URL+"/simulate", "application/json", strings.NewReader(dryBody(7000+job, "")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %d: HTTP %d", job, resp.StatusCode)
		}
	}
	degraded := func() bool {
		t.Helper()
		resp, err := http.Get(front.ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rz ReadyResponse
		if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
			t.Fatal(err)
		}
		return slices.Contains(rz.Reasons, "replication_degraded")
	}

	replica := func(step string, want map[string]float64) {
		t.Helper()
		body := scrapeMetrics(t, front.ts.URL)
		for name, v := range want {
			if got := metricValue(t, body, name); got != v {
				t.Errorf("%s: %s = %v, want %v", step, name, got, v)
			}
		}
	}

	simulate()
	if degraded() {
		t.Fatal("degraded with both nodes up")
	}
	replica("both up", map[string]float64{
		"bifrost_replica_members":        1,
		"bifrost_replica_healthy":        1,
		"bifrost_replica_writes_total":   1,
		"bifrost_replica_failures_total": 0,
		"bifrost_replication_degraded":   0,
	})
	peer.kill()
	waitFor(t, "the dead peer's breaker to trip", func() bool { simulate(); return degraded() })
	body := scrapeMetrics(t, front.ts.URL)
	replica("peer down", map[string]float64{
		"bifrost_replica_members":      1,
		"bifrost_replica_healthy":      0,
		"bifrost_replica_writes_total": 1,
		"bifrost_replication_degraded": 1,
	})
	if v := metricValue(t, body, "bifrost_replica_failures_total"); v == 0 {
		t.Error("writes to the dead peer counted no replica failures")
	}

	// The peer comes back on the same address (same ring name), like a
	// restarted process; its farm kept running, as after a network partition.
	l, err := net.Listen("tcp", peer.addr)
	if err != nil {
		t.Fatal(err)
	}
	back := httptest.NewUnstartedServer(NewServer(peer.fm, WithReplicatedStore(peer.repl)))
	back.Listener.Close()
	back.Listener = l
	back.Start()
	t.Cleanup(back.Close)
	waitFor(t, "the replica breaker to re-close on traffic", func() bool { simulate(); return !degraded() })
	replica("peer back", map[string]float64{
		"bifrost_replica_healthy":      1,
		"bifrost_replication_degraded": 0,
	})

	// Rejoined for real: the next result is replicated onto the peer's disk.
	before := peer.fm.Stats().Disk.Puts
	simulate()
	if got := peer.fm.Stats().Disk.Puts; got <= before {
		t.Fatalf("no replica write reached the restarted peer (disk puts %d → %d)", before, got)
	}
}

// TestChaosSweepResumeJournalWithoutCache pins the resume edge case where
// the journal survived a crash but the cache did not (or eviction outran
// the sweep): a journaled key absent from every cache tier must be
// recomputed through normal dispatch — never an error row, never a stall.
func TestChaosSweepResumeJournalWithoutCache(t *testing.T) {
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
	first := postSweepNDJSON(t, ts.URL, "sweep_id=gap", reqs)
	assertSweepRows(t, "initial journaled sweep", want, first)
	ts.Close()
	fm.Close()

	// The journal survived; the cache did not.
	if err := os.RemoveAll(cacheDir); err != nil {
		t.Fatal(err)
	}

	ts2, srv2, fm2 := boot()
	t.Cleanup(func() { ts2.Close(); fm2.Close() })
	got := postSweepNDJSON(t, ts2.URL, "sweep_id=gap&resume=true", reqs)
	assertSweepRows(t, "resume without cache", want, got)
	if n := fm2.Stats().Completed; n != int64(len(reqs)) {
		t.Fatalf("resume without cache executed %d simulations, want %d (full recompute)", n, len(reqs))
	}
	if n := srv2.sweeps.replayed.Load(); n != 0 {
		t.Fatalf("resume without cache claimed %d journal replays, want 0", n)
	}
}
