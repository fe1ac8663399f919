package farm

import (
	"errors"
	"sync/atomic"
)

// ReplicatedStore makes the distributed result tier durable: every result a
// farm persists fans out to the first R distinct owners of its job's
// placement (Job.Placement) on a consistent-hash ring over this node and its
// peers, so losing any single node's disk loses no results — a coordinator,
// which walks the same ring by the same placement, routes the shard to the
// next owner, which holds a copy in its own local tier.
//
// Replicas are written, never read back. Every result is a pure function of
// its key (the simulations are deterministic), so a copy this node
// lacks — it restarted empty, joined after the write, or a frame failed its
// CRC — is recomputed byte for byte rather than fetched. Get therefore reads
// the local tier only, and nothing heals replicas in the background: the
// store starts no goroutine.
//
// The ring is static: self plus every configured member, built once. What
// varies is who takes part. A write walks its placement's owners in ring
// order and offers each member the write through its breaker's Admit
// (inside the member's RetryStore); a member that refuses — quarantined
// with no probe due — is skipped and the next owner takes its place, which
// by consistent hashing is exactly the owner order of a ring rebuilt
// without it. Because the gate is Admit and never "is it open", a
// quarantined member keeps receiving one real write per probe interval and
// rejoins on the first that succeeds.
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
	local    LocalTier     // this node's tier (RetryStore over DiskStore); nil for a diskless node
	localPut FallibleStore // local's error-surfacing write, resolved once
	selfName string        // this node's ring identity; "" keeps self off the ring
	replicas int           // R: distinct owners per key, clamped to ring size

	members map[string]*RetryStore // by ring name; fixed at construction
	ring    *Ring                  // self plus every member; never mutated

	writes   atomic.Int64 // successful remote replica writes
	failures atomic.Int64 // failed remote replica writes
}

// ReplicaMember names one remote replica target: a RetryStore, typically
// wrapping a *PeerStore, whose breaker is the member's health — it
// quarantines a dead peer and re-admits it on the first write that lands.
type ReplicaMember struct {
	Name  string
	Store *RetryStore
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
		localPut: asFallible(local),
		selfName: selfName,
		replicas: replicas,
		members:  make(map[string]*RetryStore, len(members)),
		ring:     NewRing(0),
	}
	if selfName != "" {
		rs.ring.Add(selfName)
	}
	for _, m := range members {
		rs.members[m.Name] = m.Store
		rs.ring.Add(m.Name)
	}
	return rs
}

// Get implements Store: the local tier only. A miss lets the farm
// recompute, and the recompute's Put re-replicates the result.
func (rs *ReplicatedStore) Get(key string) (Result, bool) {
	if rs.local == nil {
		return Result{}, false
	}
	return rs.local.Get(key)
}

// Put implements Store for a writer that holds a key but no job: it places
// the write by the key itself, as put would with place = key. A farm never
// calls it: it persists a fresh result through put with the job's
// Placement, the ring input a coordinator routes the job by.
func (rs *ReplicatedStore) Put(key string, res Result) { rs.put(key, key, res) }

// put writes res under key to the local tier synchronously (this node's own
// cache), then offers it to the remote owners of place, in ring order and
// through their breakers, until R owners have been offered the write. place
// is the job's Placement, so the owners are exactly the nodes a coordinator
// walks for the job: the first is the node that computed it, the rest are
// the failover targets that then hold a replica. Per-replica failure is
// tolerated and counted — the write needs one copy to land. It returns the
// local write's error (errNoDiskTier on a diskless node), so the farm keeps
// a result this node could not store in its memory tier.
func (rs *ReplicatedStore) put(place, key string, res Result) error {
	err := errNoDiskTier
	if rs.local != nil {
		err = rs.localPut.PutErr(key, res)
	}
	owned := 0
	for _, name := range rs.ring.Owners(place, len(rs.members)+1) {
		if owned == rs.replicas {
			break
		}
		if name == rs.selfName {
			owned++ // the synchronous local write is self's copy
			continue
		}
		switch err := rs.members[name].PutErr(key, res); {
		case errors.Is(err, ErrStoreQuarantined):
			continue // refused: the next owner takes its place
		case err != nil:
			rs.failures.Add(1)
		default:
			rs.writes.Add(1)
		}
		owned++
	}
	return err
}

// healthyMembers counts the remote members whose breaker is closed — a
// reading for gauges and readiness; traffic is gated by each member's
// PutErr, through Admit.
func (rs *ReplicatedStore) healthyMembers() int {
	n := 0
	for _, m := range rs.members {
		if !m.Degraded() {
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
		if cerr := m.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
