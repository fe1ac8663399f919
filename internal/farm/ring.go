package farm

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring over named peers: every job's placement
// (Job.Placement) maps to an owner, and adding or removing one peer remaps
// only the jobs that peer owned (roughly 1/N of the space) instead of
// reshuffling the whole sweep. Positions are derived from SHA-256, so the
// mapping is deterministic across processes and platforms — two
// coordinators over the same member set dispatch every job identically,
// which is what keeps a sharded sweep byte-identical to a single-node run.
//
// A Ring is safe for concurrent use: the coordinator reads owners on every
// request while peer churn (join, drain, quarantine-driven removal)
// mutates membership.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []ringPoint // sorted ascending by hash
	members  map[string]struct{}
}

// ringPoint is one virtual node: a position on the ring owned by a member.
type ringPoint struct {
	hash uint64
	name string
}

// DefaultRingReplicas is the virtual-node count per member: enough to keep
// the per-member share of the key space within a few percent of uniform for
// small clusters, cheap enough that churn stays microseconds.
const DefaultRingReplicas = 128

// NewRing returns an empty ring with the given virtual-node count per
// member (replicas < 1 selects DefaultRingReplicas).
func NewRing(replicas int) *Ring {
	if replicas < 1 {
		replicas = DefaultRingReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]struct{})}
}

// ringHash positions a string on the ring. SHA-256 (truncated to 64 bits)
// rather than a seeded runtime hash: positions must agree across processes.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.LittleEndian.Uint64(sum[:8])
}

// Add inserts a member (idempotent).
func (r *Ring) Add(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[name]; ok {
		return
	}
	r.members[name] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(name + "#" + strconv.Itoa(i)), name: name})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its virtual nodes (idempotent).
func (r *Ring) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[name]; !ok {
		return
	}
	delete(r.members, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.name != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the current member names, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for name := range r.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner returns the member owning key: the first virtual node at or after
// the key's position, wrapping around. Empty string on an empty ring.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct members in failover order: the key's
// owner first, then the successive distinct members walking the ring — the
// same order every coordinator derives, so redistribution of a failed
// peer's shard is deterministic too.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	h := ringHash(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(idx+i)%len(r.points)]
		if _, dup := seen[p.name]; dup {
			continue
		}
		seen[p.name] = struct{}{}
		out = append(out, p.name)
	}
	return out
}
