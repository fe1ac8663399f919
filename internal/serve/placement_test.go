package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/farm"
)

// TestCoordinatorCancelledRowNamesContentKey pins the rows the coordinator
// originates itself: a client that leaves mid-walk, with every peer down,
// gets an error row that names the job's content key — the key a solo
// /simulate of the same request reports — and not the placement digest the
// coordinator routed it by.
func TestCoordinatorCancelledRowNamesContentKey(t *testing.T) {
	req := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 64, N: 32}, Seed: 41}
	single, _ := newTestServer(t)
	body, _ := json.Marshal(req)
	resp, err := http.Post(single.URL+"/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var solo JobResponse
	err = json.NewDecoder(resp.Body).Decode(&solo)
	resp.Body.Close()
	if err != nil || solo.Key == "" {
		t.Fatalf("solo /simulate: %+v (decode error %v), want a key", solo, err)
	}

	// The first owner is down and, as it fails, the client leaves; the other
	// is unreachable.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cancel()
		w.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(down.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	coordFarm := farm.New(1)
	t.Cleanup(coordFarm.Close)
	srv := NewServer(coordFarm, WithPeers([]Peer{{Name: "down", URL: down.URL}, {Name: "dead", URL: dead.URL}}))

	row := dispatchRow(ctx, srv, req)
	if row.err == nil || !strings.Contains(row.Error, context.Canceled.Error()) {
		t.Fatalf("row = %+v, want a cancellation error", row)
	}
	if row.Key != solo.Key {
		t.Fatalf("cancelled row names key %q, want the content key %q", row.Key, solo.Key)
	}
	if st := coordFarm.Stats(); st.Submitted != 0 {
		t.Errorf("the coordinator's farm took %d submissions, want 0", st.Submitted)
	}
}

// dispatchRow names req on srv and dispatches it, as /simulate does.
func dispatchRow(ctx context.Context, srv *Server, req JobRequest) JobResponse {
	n := srv.name(req)
	defer n.release()
	return srv.dispatch(ctx, n)
}

// place names req on srv and returns its owners, as a coordinator row does.
func place(srv *Server, req JobRequest) ([]string, error) {
	n := srv.name(req)
	defer n.release()
	return srv.coord.owners(n)
}

// TestCoordinatorPlacementAllocBound pins placement at spec cost: naming
// and placing 100 fresh K1024×N256 dense rows (1 MiB of weights each)
// allocates well under 64 KiB per row. Placing by the content key built and
// hashed every row's operands, over 1 MiB a row.
func TestCoordinatorPlacementAllocBound(t *testing.T) {
	srv := NewServer(farm.New(1), WithPeers([]Peer{{Name: "w1", URL: "http://w1"}, {Name: "w2", URL: "http://w2"}}))
	t.Cleanup(srv.farm.Close)
	req := func(seed int64) JobRequest {
		return JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: &DenseSpec{K: 1024, N: 256},
			FCMapping: []int{4, 4, 1}, Seed: seed}
	}
	if _, err := place(srv, req(0)); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		if _, err := place(srv, req(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRow := (after.TotalAlloc - before.TotalAlloc) / runs; perRow >= 64<<10 {
		t.Errorf("placing a fresh dense row allocates %d B, want < 64 KiB", perRow)
	} else {
		t.Logf("%d B per placement", perRow)
	}
}

// offerLog is a replica member that records, in one log shared by a
// cluster, every write offered to it.
type offerLog struct {
	name string
	mu   *sync.Mutex
	log  *[]string
}

func (o offerLog) Get(string) (farm.Result, bool) { return farm.Result{}, false }
func (o offerLog) Put(string, farm.Result) {
	o.mu.Lock()
	*o.log = append(*o.log, o.name)
	o.mu.Unlock()
}
func (o offerLog) Stats() farm.StoreStats { return farm.StoreStats{} }
func (o offerLog) Close() error           { return nil }

// TestCoordinatorAndReplicaRingWalksAgree pins the one ring input both sides
// share. Over 3 members at R = 2 and 500 seeded rows of the sweep's four
// kinds, the coordinator's owner order must be the ring's order for the
// job's Placement, and a farm persisting the job must offer it exactly to
// the remote owners among the first R of that order: on the first owner,
// to the second; on the third owner, to the first and then the second — so
// the walk's order, not just its set, is checked. Hashing the content key
// on either side places most rows elsewhere.
func TestCoordinatorAndReplicaRingWalksAgree(t *testing.T) {
	const replicas = 2
	names := []string{"node0", "node1", "node2"}
	peers := make([]Peer, len(names))
	ring := farm.NewRing(0)
	for i, n := range names {
		peers[i] = Peer{Name: n, URL: "http://" + n}
		ring.Add(n)
	}
	srv := NewServer(farm.New(1), WithPeers(peers))
	t.Cleanup(srv.farm.Close)

	var mu sync.Mutex
	var offers []string
	farms := map[string]*farm.Farm{}
	locals := map[string]*farm.MemoryStore{}
	for _, self := range names {
		var members []farm.ReplicaMember
		for _, n := range names {
			if n != self {
				members = append(members, farm.ReplicaMember{Name: n, Store: farm.NewRetryStore(offerLog{name: n, mu: &mu, log: &offers}, farm.RetryPolicy{})})
			}
		}
		locals[self] = farm.NewMemoryStore(0, 0)
		fm := farm.New(1, farm.WithDiskStore(farm.NewReplicatedStore(locals[self], self, replicas, members)))
		t.Cleanup(fm.Close)
		farms[self] = fm
	}
	persist := func(node string, req JobRequest) []string {
		job, err := req.lazyJob()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		offers = offers[:0]
		mu.Unlock()
		res, err := farms[node].Do(job)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := locals[node].Get(res.Key); !ok {
			t.Fatalf("%s did not keep its own copy of %s", node, res.Key)
		}
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(offers)
	}

	convMap := [][]int{{1, 1, 1, 1, 1, 1, 1, 1}, {1, 1, 1, 2, 1, 1, 1, 1}, {3, 3, 1, 1, 1, 1, 1, 1}}
	fcMap := [][]int{{1, 1, 1}, {4, 4, 1}, {2, 8, 1}}
	for i := 0; i < 500; i++ {
		var req JobRequest
		switch i % 4 {
		case 0: // MAERI conv
			req = JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "conv2d",
				Conv: &ConvSpec{C: 2, H: 6, K: 4, R: 3}, Mapping: convMap[i%3]}
		case 1: // MAERI dense
			req = JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense",
				Dense: &DenseSpec{K: 16, N: 8}, FCMapping: fcMap[i%3]}
		case 2: // SIGMA
			req = JobRequest{Arch: ArchSpec{Controller: "sigma"}, Op: "dense", Dense: &DenseSpec{K: 16, N: 8}}
		case 3: // TPU
			req = JobRequest{Arch: ArchSpec{Controller: "tpu"}, Op: "conv2d", Conv: &ConvSpec{C: 2, H: 6, K: 4, R: 3}}
		}
		req.Seed = int64(i)
		owners, err := place(srv, req)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := req.spec()
		place, _ := spec.Placement()
		if want := ring.Owners(place, len(names)); !slices.Equal(owners, want) {
			t.Fatalf("row %d: coordinator owners %v, want the placement's ring order %v", i, owners, want)
		}
		if got := persist(owners[0], req); !slices.Equal(got, owners[1:replicas]) {
			t.Fatalf("row %d: persist on first owner %s offered %v, want %v", i, owners[0], got, owners[1:replicas])
		}
		if got := persist(owners[2], req); !slices.Equal(got, owners[:replicas]) {
			t.Fatalf("row %d: persist on third owner %s offered %v, want %v", i, owners[2], got, owners[:replicas])
		}
	}
	for _, n := range names {
		if st := farms[n].Stats(); st.Failed != 0 {
			t.Fatalf("%s failed %d jobs", n, st.Failed)
		}
	}
}
