package farm

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over named peers: every job's placement
// (Job.Placement) maps to an owner, and a ring built with one more or one
// fewer peer remaps only the jobs that peer owns (roughly 1/N of the space)
// instead of reshuffling the whole sweep. Positions are derived from
// SHA-256, so the mapping is deterministic across processes and platforms —
// two coordinators over the same member set dispatch every job
// identically, which is what keeps a sharded sweep byte-identical to a
// single-node run.
//
// A Ring is built once: every Add runs before the ring is shared, and a
// peer that is down or draining stays a member, skipped by its caller's
// breaker rather than removed. Owners and Len are then safe for concurrent
// use with no lock.
type Ring struct {
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
// small clusters, cheap enough that building a ring stays microseconds.
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

// Add inserts a member (idempotent). It must not run concurrently with any
// other method.
func (r *Ring) Add(name string) {
	if _, ok := r.members[name]; ok {
		return
	}
	r.members[name] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: ringHash(name + "#" + strconv.Itoa(i)), name: name})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Owners returns up to n distinct members in failover order: the key's
// owner first, then the successive distinct members walking the ring — the
// same order every coordinator derives, so redistribution of a failed
// peer's shard is deterministic too.
func (r *Ring) Owners(key string, n int) []string {
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
