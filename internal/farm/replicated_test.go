package farm

import (
	"os"
	"path/filepath"
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

// TestReplicatedRingReadRepair pins the quorum-free read path: a hit served
// by a later-ordered owner heals the local tier and every earlier owner
// that cleanly missed, asynchronously.
func TestReplicatedRingReadRepair(t *testing.T) {
	rs, local, peers, ring := replicaFixture(t, 2)

	// Find a key owned by two remote members — seed only the second owner,
	// so the read must fail over past a clean miss before it hits.
	var key, first, second string
	for i := 0; i < 4096; i++ {
		owners := ring.Owners(storeKey(i), 2)
		if owners[0] != "self" && owners[1] != "self" {
			key, first, second = storeKey(i), owners[0], owners[1]
			break
		}
	}
	if key == "" {
		t.Fatal("no key with two remote owners in 4096 candidates")
	}
	want := fakeResult(7, 4)
	peers[second].Put(key, want)

	res, ok := rs.Get(key)
	if !ok || res.Stats != want.Stats {
		t.Fatalf("read did not fail over to owner %s: ok=%v", second, ok)
	}
	rs.Flush()

	if _, ok := local.Get(key); !ok {
		t.Error("read-repair did not heal the local tier")
	}
	if _, ok := peers[first].Get(key); !ok {
		t.Errorf("read-repair did not heal earlier owner %s", first)
	}
	if st := rs.ReplicaStats(); st.Repairs < 2 {
		t.Errorf("repairs counter %d, want >= 2", st.Repairs)
	}

	// A total miss stays a miss: the farm recomputes, Get must not invent.
	if _, ok := rs.Get(storeKey(9999)); ok {
		t.Error("Get invented a result for a key no replica holds")
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

// TestReplicatedRingRebalanceOnChurn pins anti-entropy: when a member
// rejoins the ring, every locally-held key whose ownership set gained the
// member is streamed to it — a replaced disk repopulates from its peers
// without a recompute.
func TestReplicatedRingRebalanceOnChurn(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newScriptedStore(), newScriptedStore()
	rs := NewReplicatedStore(ds, "self", 2,
		[]ReplicaMember{{Name: "a", Store: a}, {Name: "b", Store: b}},
		WithRebalanceRate(1<<20))
	defer rs.Close()

	// b is down while the sweep runs: every result lands on self and a only.
	rs.SetMemberActive("b", false)
	const n = 48
	for i := 0; i < n; i++ {
		rs.Put(storeKey(i), fakeResult(i, 4))
	}
	if _, ok := b.Get(storeKey(0)); ok {
		t.Fatal("inactive member received a replica write")
	}

	// b rejoins: the churn transition must stream it the keys it now owns.
	rs.SetMemberActive("b", true)
	full := NewRing(0)
	for _, name := range []string{"self", "a", "b"} {
		full.Add(name)
	}
	var expect []string
	for i := 0; i < n; i++ {
		for _, o := range full.Owners(storeKey(i), 2) {
			if o == "b" {
				expect = append(expect, storeKey(i))
			}
		}
	}
	if len(expect) == 0 {
		t.Fatal("degenerate fixture: b owns no keys")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		missing := 0
		for _, key := range expect {
			if _, ok := b.Get(key); !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance stalled: %d of %d owed keys never reached b", missing, len(expect))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := rs.ReplicaStats(); st.Rebalanced < int64(len(expect)) {
		t.Errorf("rebalanced counter %d, want >= %d", st.Rebalanced, len(expect))
	}
}

// TestReplicatedBreakerReclosesAndRejoins pins "rejoin on recovery": a
// member whose breaker tripped keeps being offered one real operation per
// probe interval (the gate is Admit, never "is it open"), the first probe
// that succeeds closes the breaker, the transition starts a rebalance that
// streams the member the keys it missed, and later writes land on it again.
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
	rs := NewReplicatedStore(ds, "self", 2, []ReplicaMember{{Name: "peer", Store: member}},
		WithRebalanceRate(1<<20))
	defer rs.Close()

	// One failed Put trips the breaker; the peer heals straight away.
	peer.script(0, 1)
	rs.Put(storeKey(0), fakeResult(0, 4))
	if st := rs.ReplicaStats(); st.Healthy != 0 || st.Failures != 1 || !st.Degraded {
		t.Fatalf("after the failed put: %+v, want 0 healthy, 1 failure, degraded", st)
	}

	// traffic keeps reading and writing through the store, as a farm would.
	next := 1
	traffic := func(n int) {
		for i := 0; i < n; i++ {
			rs.Put(storeKey(next), fakeResult(next, 4))
			rs.Get(storeKey(1_000_000 + next)) // a miss everywhere: reaches the owner walk
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

	// The close transition started a rebalance (synchronously, from the
	// probe's own goroutine): every key written during the outage reaches
	// the member without a single new Put.
	rs.rebalWG.Wait()
	missed := next - 1 // keys 0..next-2 were written while the member was out
	for i := 0; i < missed; i++ {
		if _, ok := peer.Get(storeKey(i)); !ok {
			t.Errorf("rebalance never streamed key %d to the recovered member", i)
		}
	}
	if st := rs.ReplicaStats(); st.Rebalanced < int64(missed) {
		t.Errorf("rebalanced counter %d, want >= %d", st.Rebalanced, missed)
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

// TestChaosScrubRepairsCorruptEntry pins the scrubber: an injected on-disk
// corruption is found by the CRC re-verification, the damaged frame is
// deleted, and the slot is refilled byte-identically from a replica.
func TestChaosScrubRepairsCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	peer := newScriptedStore()
	rs := NewReplicatedStore(ds, "self", 2,
		[]ReplicaMember{{Name: "peer", Store: peer}})
	defer rs.Close()

	key := storeKey(1)
	want := fakeResult(7, 8)
	rs.Put(key, want) // lands locally and on the replica (R=2 over 2 nodes)
	if _, ok := peer.Get(key); !ok {
		t.Fatal("replica never received the frame")
	}

	// Flip one byte of the stored frame: the next CRC check must fail.
	path := filepath.Join(dir, DiskFormatVersion, key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	scr := NewScrubber(ds, 0, rs.GetRemote)
	defer scr.Stop()
	if n := scr.RunPass(); n != 1 {
		t.Fatalf("scrub pass scanned %d entries, want 1", n)
	}
	st := scr.Stats()
	if st.Scanned != 1 || st.Corrupt != 1 || st.Repaired != 1 {
		t.Fatalf("scrub stats %+v, want 1 scanned, 1 corrupt, 1 repaired", st)
	}

	got, ok := ds.Peek(key)
	if !ok {
		t.Fatal("repaired entry missing from disk")
	}
	if got.Stats != want.Stats {
		t.Fatalf("repaired stats %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Out.Data()) != len(want.Out.Data()) {
		t.Fatalf("repaired tensor has %d elements, want %d", len(got.Out.Data()), len(want.Out.Data()))
	}
	for i := range want.Out.Data() {
		if got.Out.Data()[i] != want.Out.Data()[i] {
			t.Fatalf("repaired tensor diverges at element %d", i)
		}
	}

	// A clean second pass: nothing left to repair.
	if scr.RunPass(); scr.Stats().Corrupt != 1 {
		t.Fatalf("clean pass found new corruption: %+v", scr.Stats())
	}
}
