package farm

import (
	"errors"
	"sync/atomic"
)

// ReplicatedStore makes the distributed result tier durable: every Put fans
// out to the first R distinct owners of the key on a consistent-hash ring
// over this node and its peers, so losing any single node's disk loses no
// results — a coordinator routes the shard to the next owner, which holds a
// copy in its own local tier.
//
// Replicas are written, never read back. Every result is a pure function of
// its content key (the simulations are deterministic), so a copy this node
// lacks — it restarted empty, joined after the write, or a frame failed its
// CRC — is recomputed byte for byte rather than fetched. Get therefore reads
// the local tier only, and nothing heals replicas in the background: the
// store starts no goroutine.
//
// The ring is static: self plus every configured member, built once. What
// varies is who takes part. Put walks a key's owners in ring order and
// offers each member the write through its breaker's Admit (inside the
// member's RetryStore); a member that refuses — barred, or quarantined with
// no probe due — is skipped and the next owner takes its place, which by
// consistent hashing is exactly the owner order of a ring rebuilt without
// it. Because the gate is Admit and never "is it open", a quarantined
// member keeps receiving one real write per probe interval and rejoins on
// the first that succeeds.
//
// Writes are replicated, not quorum-gated: the local tier is written
// synchronously (it is this node's own cache), remote owners get the frame
// through their per-replica breaker (NewRetryStore), and a Put succeeds as
// long as one copy lands. Failed replica writes are counted, never healed
// later.
//
// The zero number of remote members degenerates to a plain wrapper around
// the local tier. A ReplicatedStore is safe for concurrent use.
type ReplicatedStore struct {
	local    LocalTier // this node's tier (RetryStore over DiskStore); nil for a diskless node
	selfName string    // this node's ring identity; "" keeps self off the ring
	replicas int       // R: distinct owners per key, clamped to ring size

	members map[string]*replicaMember // by ring name; fixed at construction
	ring    *Ring                     // self plus every member; never mutated

	writes   atomic.Int64 // successful remote replica writes
	failures atomic.Int64 // failed remote replica writes
}

// replicaMember is one remote peer's replication state.
type replicaMember struct {
	store   Store         // owned: closed with the ReplicatedStore
	fal     FallibleStore // store's error-surfacing half, resolved once
	breaker *Breaker      // the store's breaker when it is a *RetryStore; nil = never quarantined
	act     atomic.Bool   // administrative bar (SetMemberActive)
}

// ReplicaMember names one remote replica target, typically a *RetryStore
// wrapping a *PeerStore so the per-replica breaker quarantines a dead peer.
type ReplicaMember struct {
	Name  string
	Store Store
}

// NewReplicatedStore builds the replicated tier. local is this node's own
// store (nil for a diskless node), selfName its ring identity (matching how
// peers name it, so every node derives the same owners; "" keeps this node
// off the ring and makes it write-through only), replicas the R in "first R
// distinct owners", and members the remote replica targets (distinctly
// named). The store owns local and every member store: Close closes them.
func NewReplicatedStore(local Store, selfName string, replicas int, members []ReplicaMember) *ReplicatedStore {
	if replicas < 1 {
		replicas = 2
	}
	rs := &ReplicatedStore{
		local:    asLocalTier(local),
		selfName: selfName,
		replicas: replicas,
		members:  make(map[string]*replicaMember, len(members)),
		ring:     NewRing(0),
	}
	if selfName != "" {
		rs.ring.Add(selfName)
	}
	for _, m := range members {
		mem := &replicaMember{store: m.Store, fal: asFallible(m.Store)}
		if retry, ok := m.Store.(*RetryStore); ok {
			mem.breaker = retry.breaker
		}
		mem.act.Store(true)
		rs.members[m.Name] = mem
		rs.ring.Add(m.Name)
	}
	return rs
}

// healthy reports the member's health for gauges and readiness: not barred
// and its breaker closed. It never gates traffic — putErr does, through
// Admit.
func (m *replicaMember) healthy() bool {
	return m.act.Load() && (m.breaker == nil || !m.breaker.Open())
}

// putErr offers the member a write. ErrStoreQuarantined means it refused —
// administratively barred, or its breaker is open with no probe due — and
// the caller skips it as if it were off the ring.
func (m *replicaMember) putErr(key string, res Result) error {
	if !m.act.Load() {
		return ErrStoreQuarantined
	}
	return m.fal.PutErr(key, res)
}

// SetMemberActive is the administrative bar: an inactive member is offered
// no traffic at all (not even breaker probes) until it is re-activated.
func (rs *ReplicatedStore) SetMemberActive(name string, active bool) {
	if m := rs.members[name]; m != nil {
		m.act.Store(active)
	}
}

// Get implements Store: the local tier only. A miss lets the farm
// recompute, and the recompute's Put re-replicates the result.
func (rs *ReplicatedStore) Get(key string) (Result, bool) {
	if rs.local == nil {
		return Result{}, false
	}
	return rs.local.Get(key)
}

// Put implements Store: the local tier synchronously (this node's own
// cache), then the key's remote owners through their breakers until R
// owners have been offered the write. Per-replica failure is tolerated and
// counted — the write needs one copy to land.
func (rs *ReplicatedStore) Put(key string, res Result) {
	if rs.local != nil {
		rs.local.Put(key, res)
	}
	owned := 0
	for _, name := range rs.ring.Owners(key, len(rs.members)+1) {
		if owned == rs.replicas {
			break
		}
		if name == rs.selfName {
			owned++ // the synchronous local write is self's copy
			continue
		}
		switch err := rs.members[name].putErr(key, res); {
		case errors.Is(err, ErrStoreQuarantined):
			continue // refused: the next owner takes its place
		case err != nil:
			rs.failures.Add(1)
		default:
			rs.writes.Add(1)
		}
		owned++
	}
}

// healthyMembers counts the remote members currently healthy.
func (rs *ReplicatedStore) healthyMembers() int {
	n := 0
	for _, m := range rs.members {
		if m.healthy() {
			n++
		}
	}
	return n
}

// ReplicationDegraded reports whether fewer than R of the key space's
// potential owners (this node plus its members) are currently reachable —
// new writes cannot reach their full replica count, so the node should
// advertise not-ready and let traffic land where durability is intact.
func (rs *ReplicatedStore) ReplicationDegraded() bool {
	self := 0
	if rs.selfName != "" || rs.local != nil {
		self = 1 // the local tier is always reachable from here
	}
	return rs.healthyMembers()+self < min(rs.replicas, len(rs.members)+self)
}

// ReplicaStats is the replication tier's health and counter snapshot.
type ReplicaStats struct {
	Members  int   // configured remote replicas
	Healthy  int   // remote replicas currently accepting traffic
	Writes   int64 // successful remote replica writes
	Failures int64 // failed remote replica writes
	Degraded bool  // fewer than R owners reachable
}

// ReplicaStats snapshots the replication counters for /metrics.
func (rs *ReplicatedStore) ReplicaStats() ReplicaStats {
	return ReplicaStats{
		Members:  len(rs.members),
		Healthy:  rs.healthyMembers(),
		Writes:   rs.writes.Load(),
		Failures: rs.failures.Load(),
		Degraded: rs.ReplicationDegraded(),
	}
}

// Stats implements Store: the local tier's counters (the farm reports this
// as its disk tier), annotated with replication degradation.
func (rs *ReplicatedStore) Stats() StoreStats {
	var st StoreStats
	if rs.local != nil {
		st = rs.local.Stats()
	}
	if rs.ReplicationDegraded() {
		st.Degraded = true
	}
	return st
}

// Close implements Store: close the local tier and every member store.
func (rs *ReplicatedStore) Close() error {
	var err error
	if rs.local != nil {
		err = rs.local.Close()
	}
	for _, m := range rs.members {
		if cerr := m.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
