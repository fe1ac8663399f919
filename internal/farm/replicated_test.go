package farm

import (
	"testing"
	"time"
)

// replicaFixture builds a ReplicatedStore over a scripted local tier and
// scripted remote members a, b, c — plus the ring the test uses to predict
// ownership independently of the store's internals.
func replicaFixture(t *testing.T, replicas int) (*ReplicatedStore, *scriptedStore, map[string]*scriptedStore, *Ring) {
	t.Helper()
	local := newScriptedStore()
	peers := map[string]*scriptedStore{
		"a": newScriptedStore(),
		"b": newScriptedStore(),
		"c": newScriptedStore(),
	}
	members := []ReplicaMember{
		{Name: "a", Store: peers["a"]},
		{Name: "b", Store: peers["b"]},
		{Name: "c", Store: peers["c"]},
	}
	rs := NewReplicatedStore(local, "self", replicas, members)
	t.Cleanup(func() { rs.Close() })
	ring := NewRing(0)
	for _, n := range []string{"self", "a", "b", "c"} {
		ring.Add(n)
	}
	return rs, local, peers, ring
}

// TestReplicatedRingPutFansOutToOwners pins the write path: every Put lands
// in the local tier plus exactly the key's first R distinct ring owners —
// no more (no N-squared cascade), no fewer (durability).
func TestReplicatedRingPutFansOutToOwners(t *testing.T) {
	rs, local, peers, ring := replicaFixture(t, 2)

	wantRemote := 0
	for i := 0; i < 40; i++ {
		key := storeKey(i)
		rs.Put(key, fakeResult(i, 4))
		owners := map[string]bool{}
		for _, n := range ring.Owners(key, 2) {
			owners[n] = true
		}
		if _, ok := local.Get(key); !ok {
			t.Fatalf("key %d missing from the local tier", i)
		}
		for name, p := range peers {
			_, has := p.Get(key)
			if owners[name] && !has {
				t.Errorf("key %d missing from owner %s", i, name)
			}
			if !owners[name] && has {
				t.Errorf("key %d leaked to non-owner %s", i, name)
			}
			if owners[name] {
				wantRemote++
			}
		}
	}
	st := rs.ReplicaStats()
	if st.Writes != int64(wantRemote) || st.Failures != 0 {
		t.Fatalf("replica counters: writes %d failures %d, want %d writes, 0 failures",
			st.Writes, st.Failures, wantRemote)
	}
	if st.Members != 3 || st.Healthy != 3 || st.Degraded {
		t.Fatalf("replica health: %+v, want 3/3 healthy, not degraded", st)
	}
}

// TestReplicatedGetReadsLocalTierOnly pins the read path: replicas are
// written, never read back. A key that both of its remote owners hold but
// the local tier lacks is a miss (the farm recomputes it), and no member is
// asked for it; a key in the local tier hits.
func TestReplicatedGetReadsLocalTierOnly(t *testing.T) {
	rs, local, peers, ring := replicaFixture(t, 2)

	var key string
	for i := 0; i < 4096; i++ {
		owners := ring.Owners(storeKey(i), 2)
		if owners[0] != "self" && owners[1] != "self" {
			key = storeKey(i)
			for _, o := range owners {
				peers[o].PutErr(key, fakeResult(7, 4))
			}
			break
		}
	}
	if key == "" {
		t.Fatal("no key with two remote owners in 4096 candidates")
	}
	if _, ok := rs.Get(key); ok {
		t.Fatal("Get served a key the local tier does not hold")
	}

	want := fakeResult(8, 4)
	local.PutErr(storeKey(9999), want)
	if res, ok := rs.Get(storeKey(9999)); !ok || res.Stats != want.Stats {
		t.Fatalf("local-tier key: ok=%v, want a hit", ok)
	}
	for name, p := range peers {
		if gets, _ := p.counts(); gets != 0 {
			t.Errorf("member %s was read %d times, want 0", name, gets)
		}
	}
}

// TestReplicatedRingDegraded pins the readiness signal: replication is
// degraded exactly while fewer than R of the key space's owners (self plus
// healthy members) are reachable.
func TestReplicatedRingDegraded(t *testing.T) {
	rs, _, _, _ := replicaFixture(t, 2)

	if rs.ReplicationDegraded() {
		t.Fatal("degraded with every member healthy")
	}
	rs.SetMemberActive("a", false)
	rs.SetMemberActive("b", false)
	if rs.ReplicationDegraded() {
		t.Fatal("degraded with one member left: self + c still cover R=2")
	}
	rs.SetMemberActive("c", false)
	if !rs.ReplicationDegraded() {
		t.Fatal("not degraded with every remote member down and R=2")
	}
	if st := rs.ReplicaStats(); st.Healthy != 0 || !st.Degraded {
		t.Fatalf("replica stats %+v, want 0 healthy, degraded", st)
	}
	rs.SetMemberActive("b", true)
	if rs.ReplicationDegraded() {
		t.Fatal("still degraded after a member recovered")
	}
}

// TestReplicatedBreakerReclosesAndRejoins pins "rejoin on recovery": a
// member whose breaker tripped keeps being offered one real operation per
// probe interval (the gate is Admit, never "is it open"), the first probe
// that succeeds closes the breaker, and later writes land on it again.
func TestReplicatedBreakerReclosesAndRejoins(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	policy := RetryPolicy{TripAfter: 1, ProbeEvery: time.Second}
	peer := newScriptedStore()
	member := NewRetryStore(peer, policy)
	now := time.Unix(1000, 0)
	member.breaker.now = func() time.Time { return now }
	rs := NewReplicatedStore(ds, "self", 2, []ReplicaMember{{Name: "peer", Store: member}})
	defer rs.Close()

	// One failed Put trips the breaker; the peer heals straight away.
	peer.script(0, 1)
	rs.Put(storeKey(0), fakeResult(0, 4))
	if st := rs.ReplicaStats(); st.Healthy != 0 || st.Failures != 1 || !st.Degraded {
		t.Fatalf("after the failed put: %+v, want 0 healthy, 1 failure, degraded", st)
	}

	// traffic keeps writing through the store, as a farm would.
	next := 1
	traffic := func(n int) {
		for i := 0; i < n; i++ {
			rs.Put(storeKey(next), fakeResult(next, 4))
			next++
		}
	}
	offered := func() int { gets, puts := peer.counts(); return gets + puts }

	// Inside the first probe window nothing reaches the quarantined member.
	traffic(5)
	if got := offered(); got != 1 {
		t.Fatalf("quarantined member was offered %d operations inside the probe window, want only the 1 that tripped it", got)
	}
	// Second window: exactly one probe goes through; it fails, the breaker
	// stays open and the rest of the window is refused again.
	now = now.Add(policy.ProbeEvery)
	peer.script(1, 1)
	traffic(5)
	if got := offered(); got != 2 {
		t.Fatalf("open breaker let %d operations through in one probe window, want exactly 1 probe", got-1)
	}
	if st := rs.ReplicaStats(); st.Healthy != 0 {
		t.Fatalf("failed probe closed the breaker: %+v", st)
	}
	// Third window: the peer is healthy, the probe succeeds, the member rejoins.
	peer.script(0, 0)
	now = now.Add(policy.ProbeEvery)
	traffic(1)
	if st := rs.ReplicaStats(); st.Healthy != 1 || st.Degraded {
		t.Fatalf("member never rejoined after a successful probe: %+v", st)
	}

	// Normal service: later writes land on the member directly.
	writes := rs.ReplicaStats().Writes
	rs.Put(storeKey(next), fakeResult(next, 4))
	if _, ok := peer.Get(storeKey(next)); !ok {
		t.Error("a Put after recovery did not land on the member")
	}
	if got := rs.ReplicaStats().Writes; got != writes+1 {
		t.Errorf("replica writes %d after the post-recovery Put, want %d", got, writes+1)
	}
}
