package farm_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/farm"
)

// newRing builds a ring over members with the default virtual-node count.
func newRing(members ...string) *farm.Ring {
	r := farm.NewRing(0)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

// owner is the ring's primary owner of key, "" on an empty ring.
func owner(r *farm.Ring, key string) string {
	if owners := r.Owners(key, 1); len(owners) == 1 {
		return owners[0]
	}
	return ""
}

// TestRingDeterministic pins that two independently built rings over the
// same member set agree on every owner — the property that lets every
// coordinator compute placement locally with no consensus traffic.
func TestRingDeterministic(t *testing.T) {
	// Insertion order must not matter.
	a, b := newRing("node-c", "node-a", "node-b"), newRing("node-b", "node-c", "node-a")
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("key-%d", i)
		if ao, bo := owner(a, key), owner(b, key); ao != bo {
			t.Fatalf("key %q: ring A owner %q, ring B owner %q", key, ao, bo)
		}
	}
}

// TestRingOwnersDistinctFailoverOrder checks Owners returns distinct
// members, the primary first, and never more than the membership.
func TestRingOwnersDistinctFailoverOrder(t *testing.T) {
	r := farm.NewRing(0)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.Owners(key, 10)
		if len(owners) != 4 {
			t.Fatalf("key %q: %d owners, want all 4", key, len(owners))
		}
		if owners[0] != owner(r, key) {
			t.Fatalf("key %q: Owners(key, 10)[0]=%q != Owners(key, 1)[0]=%q", key, owners[0], owner(r, key))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q: duplicate owner %q in %v", key, o, owners)
			}
			seen[o] = true
		}
	}
}

// TestRingRemoveOnlyRemapsLostShard is the consistent-hashing property
// itself: a ring built without one of four members must leave every key
// owned by a surviving member exactly where the full ring puts it.
func TestRingRemoveOnlyRemapsLostShard(t *testing.T) {
	full := newRing("node-0", "node-1", "node-2", "node-3")
	without := newRing("node-0", "node-1", "node-3")
	const keys = 2000
	moved := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		was, now := owner(full, k), owner(without, k)
		if was == "node-2" {
			if now == "node-2" || now == "" {
				t.Fatalf("key %q still maps to the removed member", k)
			}
			moved++
			continue
		}
		if now != was {
			t.Fatalf("key %q moved %q → %q though its owner survived", k, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("removed member owned zero of 2000 keys — ring badly skewed")
	}
}

// TestRingBalance checks virtual nodes keep the shard sizes roughly
// uniform: with the default replica count no member of a 4-node ring
// should stray past ~2x from its fair share over 8000 keys.
func TestRingBalance(t *testing.T) {
	r := farm.NewRing(0)
	const nodes, keys = 4, 8000
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[owner(r, fmt.Sprintf("key-%d", i))]++
	}
	fair := float64(keys) / nodes
	for m, n := range counts {
		if ratio := float64(n) / fair; math.Abs(ratio-1) > 1.0 {
			t.Errorf("member %s owns %d keys (%.2fx fair share)", m, n, ratio)
		}
	}
	if len(counts) != nodes {
		t.Fatalf("only %d members ever own keys, want %d", len(counts), nodes)
	}
}

// TestRingEmptyAndSingleMember covers the edges: an empty ring owns
// nothing, Add is idempotent, and a one-member ring routes everything
// there.
func TestRingEmptyAndSingleMember(t *testing.T) {
	r := farm.NewRing(8)
	if o := owner(r, "anything"); o != "" {
		t.Fatalf("empty ring owner = %q, want empty", o)
	}
	if owners := r.Owners("anything", 3); owners != nil {
		t.Fatalf("empty ring owners = %v, want nil", owners)
	}
	r.Add("solo")
	r.Add("solo") // idempotent
	if r.Len() != 1 {
		t.Fatalf("Len = %d after adding one member twice, want 1", r.Len())
	}
	if owners := r.Owners("k", 3); len(owners) != 1 || owners[0] != "solo" {
		t.Fatalf("owners = %v, want [solo]", owners)
	}
	for i := 0; i < 10; i++ {
		if o := owner(r, fmt.Sprintf("k%d", i)); o != "solo" {
			t.Fatalf("single-member ring routed %q to %q", fmt.Sprintf("k%d", i), o)
		}
	}
}
