package farm

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicatedStore makes the distributed result tier durable: every Put fans
// out to the first R distinct owners of the key on a consistent-hash ring
// over this node and its peers, so losing any single node's disk loses no
// results — the shard is served from its replicas, not recomputed.
//
// The ring is static: self plus every configured member, built once. What
// varies is who takes part. Traffic walks a key's owners in ring order and
// offers each member the operation through its breaker's Admit (inside the
// member's RetryStore); a member that refuses — barred, or quarantined with
// no probe due — is skipped and the next owner takes its place, which by
// consistent hashing is exactly the owner order of a ring rebuilt without
// it. Because the gate is Admit and never "is it open", a quarantined
// member keeps receiving one real operation per probe interval and rejoins
// on the first that succeeds.
//
//   - Writes are replicated, not quorum-gated: the local tier is written
//     synchronously (it is this node's own cache), remote owners get the
//     frame through their per-replica breaker (NewRetryStore), and a Put
//     succeeds as long as one copy lands. Failed replicas are counted and
//     healed later by read-repair or rebalance.
//   - Reads are quorum-free with read-repair: Get answers from the local
//     tier when it can, otherwise walks the key's owners in ring order. A
//     hit served by a non-primary replica is asynchronously written back to
//     the local tier and to every earlier-ordered owner that cleanly
//     missed, so transient outages heal on traffic. A total miss lets the
//     farm recompute, and the recompute's normal Put re-replicates it.
//   - Anti-entropy after churn: every breaker transition (and every
//     SetMemberActive flip) snapshots member health, diffs each
//     locally-held key's owners under the previous and the new snapshot,
//     and streams the key to the owners it gained in a bounded,
//     rate-limited, cancellable pass — a replaced node repopulates from
//     its peers' disks without a single recompute.
//
// The zero number of remote members degenerates to a plain wrapper around
// the local tier. A ReplicatedStore is safe for concurrent use.
type ReplicatedStore struct {
	local    LocalTier // this node's tier (RetryStore over DiskStore); nil for a diskless node
	selfName string    // this node's ring identity; "" keeps self off the ring
	replicas int       // R: distinct owners per key, clamped to ring size

	members map[string]*replicaMember // by ring name; fixed at construction
	ring    *Ring                     // self plus every member; never mutated

	repairPending  atomic.Int64 // repairs scheduled but not yet applied
	writes         atomic.Int64 // successful remote replica writes
	failures       atomic.Int64 // failed remote replica writes
	repairs        atomic.Int64 // replica writes performed by read-repair
	repairsDropped atomic.Int64 // read-repairs dropped at a full queue
	rebalanced     atomic.Int64 // keys streamed to new owners by anti-entropy

	repairCh  chan repairJob
	repairWG  sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}

	rebalanceRate int // keys per second streamed by one rebalance pass

	rebalMu     sync.Mutex
	health      map[string]bool // member health the last rebalance pass diffed up to
	rebalCancel context.CancelFunc
	rebalWG     sync.WaitGroup
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

// ReplicatedOption configures a ReplicatedStore.
type ReplicatedOption func(*ReplicatedStore)

// WithRebalanceRate bounds an anti-entropy pass to about n keys per second
// (default 128; n < 1 keeps the default). The pass is deliberately slow: it
// runs behind live traffic and must never saturate a recovering peer.
func WithRebalanceRate(n int) ReplicatedOption {
	return func(rs *ReplicatedStore) {
		if n >= 1 {
			rs.rebalanceRate = n
		}
	}
}

// defaultRepairQueue bounds the in-flight read-repair backlog; beyond it
// repairs are dropped and counted — repair is an optimisation, never worth
// blocking a read for.
const defaultRepairQueue = 256

// NewReplicatedStore builds the replicated tier. local is this node's own
// store (nil for a diskless node), selfName its ring identity (matching how
// peers name it, so every node derives the same owners; "" keeps this node
// off the ring and makes it write-through only), replicas the R in "first R
// distinct owners", and members the remote replica targets (distinctly
// named). The store owns local and every member store: Close closes them.
func NewReplicatedStore(local Store, selfName string, replicas int, members []ReplicaMember, opts ...ReplicatedOption) *ReplicatedStore {
	if replicas < 1 {
		replicas = 2
	}
	rs := &ReplicatedStore{
		local:         asLocalTier(local),
		selfName:      selfName,
		replicas:      replicas,
		members:       make(map[string]*replicaMember, len(members)),
		ring:          NewRing(0),
		closed:        make(chan struct{}),
		repairCh:      make(chan repairJob, defaultRepairQueue),
		rebalanceRate: 128,
	}
	if selfName != "" {
		rs.ring.Add(selfName)
	}
	for _, m := range members {
		mem := &replicaMember{store: m.Store, fal: asFallible(m.Store)}
		if retry, ok := m.Store.(*RetryStore); ok {
			mem.breaker = retry.breaker
			mem.breaker.onChange = rs.memberChanged
		}
		mem.act.Store(true)
		rs.members[m.Name] = mem
		rs.ring.Add(m.Name)
	}
	for _, o := range opts {
		o(rs)
	}
	rs.health = rs.snapshot()

	rs.repairWG.Add(1)
	go rs.repairLoop()
	return rs
}

// healthy reports the member's health for snapshots, gauges and readiness:
// not barred and its breaker closed. It never gates traffic — getErr and
// putErr do, through Admit.
func (m *replicaMember) healthy() bool {
	return m.act.Load() && (m.breaker == nil || !m.breaker.Open())
}

// getErr offers the member a read. ErrStoreQuarantined means it refused —
// administratively barred, or its breaker is open with no probe due — and
// the caller skips it as if it were off the ring.
func (m *replicaMember) getErr(key string) (Result, bool, error) {
	if !m.act.Load() {
		return Result{}, false, ErrStoreQuarantined
	}
	return m.fal.GetErr(key)
}

// putErr offers the member a write; see getErr for the refusal contract.
func (m *replicaMember) putErr(key string, res Result) error {
	if !m.act.Load() {
		return ErrStoreQuarantined
	}
	return m.fal.PutErr(key, res)
}

// snapshot records every member's health, keyed by name.
func (rs *ReplicatedStore) snapshot() map[string]bool {
	set := make(map[string]bool, len(rs.members))
	for name, m := range rs.members {
		set[name] = m.healthy()
	}
	return set
}

// SetMemberActive is the administrative bar: an inactive member is offered
// no traffic at all (not even breaker probes) until it is re-activated. A
// flip starts an anti-entropy pass like any other health transition.
func (rs *ReplicatedStore) SetMemberActive(name string, active bool) {
	if m := rs.members[name]; m != nil && m.act.Swap(active) != active {
		rs.memberChanged()
	}
}

// walk returns every node on the ring in the key's owner order.
func (rs *ReplicatedStore) walk(key string) []string {
	return rs.ring.Owners(key, len(rs.members)+1)
}

// owners returns the key's first R owners among self and the members the
// snapshot calls healthy — exactly the owners of a ring built over only
// those nodes.
func (rs *ReplicatedStore) owners(key string, healthy map[string]bool) []string {
	all := rs.walk(key)
	out := all[:0]
	for _, name := range all {
		if len(out) == rs.replicas {
			break
		}
		if name == rs.selfName || healthy[name] {
			out = append(out, name)
		}
	}
	return out
}

// Get implements Store: local tier first, then the key's owners in ring
// order until R have answered. A hit served by a non-primary replica
// schedules an asynchronous read-repair to the local tier and every
// earlier-ordered owner that cleanly missed; a total miss lets the farm
// recompute (whose Put then re-replicates the result).
func (rs *ReplicatedStore) Get(key string) (Result, bool) {
	if rs.local != nil {
		if res, ok := rs.local.Get(key); ok {
			return res, true
		}
	}
	var missed []*replicaMember // owners that answered a clean miss before the hit
	owned := 0
	for _, name := range rs.walk(key) {
		if owned == rs.replicas {
			break
		}
		if name == rs.selfName {
			owned++ // the local tier already missed
			continue
		}
		m := rs.members[name]
		res, ok, err := m.getErr(key)
		if errors.Is(err, ErrStoreQuarantined) {
			continue // refused: the next owner takes its place
		}
		owned++
		if err != nil {
			continue // unreachable replica: not a miss, not repairable now
		}
		if !ok {
			missed = append(missed, m)
			continue
		}
		rs.scheduleRepair(key, res, missed)
		return res, true
	}
	return Result{}, false
}

// Put implements Store: the local tier synchronously (this node's own
// cache), then the key's remote owners through their breakers until R
// owners have been offered the write. Per-replica failure is tolerated —
// the write needs one copy to land, and the counters plus later repair
// handle the rest.
func (rs *ReplicatedStore) Put(key string, res Result) {
	if rs.local != nil {
		rs.local.Put(key, res)
	}
	owned := 0
	for _, name := range rs.walk(key) {
		if owned == rs.replicas {
			break
		}
		if name == rs.selfName {
			owned++ // the synchronous local write is self's copy
			continue
		}
		if rs.replicate(rs.members[name], key, res, &rs.writes) {
			owned++ // a member that refused leaves its place to the next owner
		}
	}
}

// replicate offers m one copy of res and counts the outcome: a failure
// against the store, a success into landed. It reports false when m refused
// the write (see getErr) and therefore took no part.
func (rs *ReplicatedStore) replicate(m *replicaMember, key string, res Result, landed *atomic.Int64) bool {
	switch err := m.putErr(key, res); {
	case errors.Is(err, ErrStoreQuarantined):
		return false
	case err != nil:
		rs.failures.Add(1)
	default:
		landed.Add(1)
	}
	return true
}

// GetRemote consults only remote replicas — the scrubber's repair source:
// after deleting a corrupt local entry the replacement must come from a
// peer's copy, never from the damaged local tier. Members are asked in the
// key's ring order, all of them: when ownership has moved or the owners
// are down, any replica that still holds a copy beats recomputing.
func (rs *ReplicatedStore) GetRemote(key string) (Result, bool) {
	for _, name := range rs.walk(key) {
		if name == rs.selfName {
			continue
		}
		if res, ok, err := rs.members[name].getErr(key); err == nil && ok {
			return res, true
		}
	}
	return Result{}, false
}

// repairJob is one scheduled read-repair: write res under key to the local
// tier and to the owners that missed.
type repairJob struct {
	key     string
	res     Result
	targets []*replicaMember
}

// scheduleRepair enqueues an asynchronous write-back of a replica hit to
// the local tier and the cleanly-missed earlier owners. Never blocks: a
// full queue drops the repair and counts it — the next read will try again.
func (rs *ReplicatedStore) scheduleRepair(key string, res Result, missed []*replicaMember) {
	rs.repairPending.Add(1)
	select {
	case rs.repairCh <- repairJob{key: key, res: res, targets: missed}:
	case <-rs.closed:
		rs.repairPending.Add(-1)
	default:
		rs.repairPending.Add(-1)
		rs.repairsDropped.Add(1)
	}
}

// repairLoop is the single background writer draining scheduled repairs.
func (rs *ReplicatedStore) repairLoop() {
	defer rs.repairWG.Done()
	for {
		select {
		case <-rs.closed:
			return
		case job := <-rs.repairCh:
			if rs.local != nil {
				rs.local.Put(job.key, job.res)
				rs.repairs.Add(1)
			}
			for _, m := range job.targets {
				rs.replicate(m, job.key, job.res, &rs.repairs)
			}
			rs.repairPending.Add(-1)
		}
	}
}

// memberChanged is the one churn hook: a member's breaker fires it on every
// open/close transition, SetMemberActive on every flip. It advances the
// health snapshot and starts an anti-entropy pass over the difference,
// cancelling any pass still running from a previous transition.
func (rs *ReplicatedStore) memberChanged() {
	if rs.local == nil {
		return // nothing held locally to stream
	}
	rs.rebalMu.Lock()
	defer rs.rebalMu.Unlock()
	select {
	case <-rs.closed:
		return
	default:
	}
	old, now := rs.health, rs.snapshot()
	if maps.Equal(old, now) {
		return // e.g. a breaker moving under the administrative bar
	}
	rs.health = now
	if rs.rebalCancel != nil {
		rs.rebalCancel()
	}
	ctx, cancel := context.WithCancel(context.Background())
	rs.rebalCancel = cancel
	rs.rebalWG.Add(1)
	go func() {
		defer rs.rebalWG.Done()
		defer cancel()
		rs.rebalance(ctx, old, now)
	}()
}

// rebalance streams every locally-held key whose owners gained a member
// between the two health snapshots to those new owners, paced to the
// configured rate so a recovering peer is repopulated without being
// saturated.
func (rs *ReplicatedStore) rebalance(ctx context.Context, old, now map[string]bool) {
	pace := time.Second / time.Duration(rs.rebalanceRate)
	rs.local.Keys(func(key string) bool {
		select {
		case <-ctx.Done():
			return false
		default:
		}
		was := rs.owners(key, old)
		offered, peeked := false, false
		var res Result
		for _, name := range rs.owners(key, now) {
			if name == rs.selfName || slices.Contains(was, name) {
				continue
			}
			if !peeked {
				var ok bool
				if res, ok = rs.local.Peek(key); !ok {
					break // entry vanished mid-pass (evicted); nothing to stream
				}
				peeked = true
			}
			// A refusal means the member flipped again mid-pass; that
			// transition's own pass covers it.
			if rs.replicate(rs.members[name], key, res, &rs.rebalanced) {
				offered = true
			}
		}
		if offered && pace > 0 {
			select {
			case <-ctx.Done():
				return false
			case <-time.After(pace):
			}
		}
		return true
	})
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
	Members        int   // configured remote replicas
	Healthy        int   // remote replicas currently accepting traffic
	Writes         int64 // successful remote replica writes
	Failures       int64 // failed remote replica writes
	Repairs        int64 // writes performed by read-repair
	RepairsDropped int64 // read-repairs dropped at a full queue
	Rebalanced     int64 // keys streamed to new owners by anti-entropy
	Degraded       bool  // fewer than R owners reachable
}

// ReplicaStats snapshots the replication counters for /metrics.
func (rs *ReplicatedStore) ReplicaStats() ReplicaStats {
	return ReplicaStats{
		Members:        len(rs.members),
		Healthy:        rs.healthyMembers(),
		Writes:         rs.writes.Load(),
		Failures:       rs.failures.Load(),
		Repairs:        rs.repairs.Load(),
		RepairsDropped: rs.repairsDropped.Load(),
		Rebalanced:     rs.rebalanced.Load(),
		Degraded:       rs.ReplicationDegraded(),
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

// Close implements Store: stop the repair worker and any rebalance in
// flight, then close the local tier and every member store.
func (rs *ReplicatedStore) Close() error {
	rs.closeOnce.Do(func() {
		rs.rebalMu.Lock() // no pass can start once closed is observed under it
		close(rs.closed)
		if rs.rebalCancel != nil {
			rs.rebalCancel()
		}
		rs.rebalMu.Unlock()
	})
	rs.rebalWG.Wait()
	rs.repairWG.Wait()
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

// Flush waits until every repair scheduled so far has been applied — a test
// seam (and drain aid) so read-repair effects can be observed
// deterministically.
func (rs *ReplicatedStore) Flush() {
	for rs.repairPending.Load() > 0 {
		select {
		case <-rs.closed:
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
