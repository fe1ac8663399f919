package tensor

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// PackCache memoizes derived, immutable forms of operand tensors — packed
// GEMM B-panels, weight layout transposes, kernel matrices, SIGMA's per-row
// nonzero summaries — keyed by the source operand's content hash plus the
// parameters the derivation depends on. Simulation sweeps submit many jobs
// over the same network weights; with a shared PackCache those jobs derive
// each form once instead of once per job, which is the BLIS-style
// separation of packing from compute amortised across jobs instead of
// within one GEMM. It is for forms that are re-read: a whole-operand
// derivation of something constant across jobs or runs (weights). A form of
// a one-shot operand (a layer's activation) or one that costs less to redo
// than to hash and keep (MAERI's per-call kernel panel) does not belong in
// it — every entry that is never hit pushes out one that would be.
//
// Cached values are immutable by contract: producers hand the cache a
// fully built tensor and never write to it again, and consumers only read.
// Correctness never depends on hitting — every user falls back to building
// the form locally on a miss — so the cache is bounded (entries and bytes,
// LRU eviction) and safe to share between any number of goroutines.
type PackCache struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[PackKey]*list.Element
	bytes int64
	stats PackStats
}

// PackKey identifies one derived form: the operation that derives it
// (versioned, so incompatible layout changes never alias), the source
// operand's content hash, and the integer parameters the derivation depends
// on. Two keys are equal exactly when the derived bytes are equal, which is
// what makes sharing safe.
type PackKey struct {
	// Op names and versions the derived form, e.g. "gemm/packB/v1".
	Op string
	// Hash is the source operand's ContentHash, optionally folded with
	// extra geometry via CombineHash when P cannot carry it all.
	Hash [32]byte
	// P carries the op-specific blocking / geometry parameters.
	P [6]int
}

// PackStats is a snapshot of the cache's counters.
type PackStats struct {
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// packEntry is one cached derived form — a tensor, or an integer table for
// the forms that are counts and indices rather than values — plus its
// accounting.
type packEntry struct {
	key  PackKey
	t    *Tensor
	ints []int32
	size int64
}

// DefaultPackCacheEntries and DefaultPackCacheBytes bound the default cache
// of a farm or a session. Entries are whole-operand forms, 9 KB to 3.5 MB
// each, so the entry bound is the one that works: it is independent of
// layer size, and a model that outgrows it degrades to re-deriving its
// forms each run instead of thrashing on bytes. 64 holds a model's working
// set — a full AlexNet run keeps 5 forms on MAERI and 22 on SIGMA (19 of
// weights, re-read every run, and 3 dense-input transposes that age out),
// a VGG-16 about twice that — and nothing more: a sweep over fresh weights
// re-reads a form within one batch or never, so whatever else the cache
// holds is resident memory nobody reads. The byte bound is the safety net
// for a few very large operands. Measured on the benchmark's sweeps (peak RSS in MB, two
// 15 s runs each, same session; the parent commit, whose 4096 entries were
// recycled by MAERI's per-tile flood, read 249–293 and 249–261):
//
//	entries   sweep_miss_small   cluster_sweep_r2
//	4096      756                —
//	256       311–312            324–347
//	64        227–277            233–246
//	32        254–256            224–278
//
// 32 is no smaller than 64 in resident memory and leaves a SIGMA session
// no headroom; 256 costs 60–100 MB for forms no job reads twice.
const (
	DefaultPackCacheEntries = 64
	DefaultPackCacheBytes   = 256 << 20
)

// NewPackCache returns a bounded content-keyed pack cache. maxEntries <= 0
// and maxBytes <= 0 each disable that bound.
func NewPackCache(maxEntries int, maxBytes int64) *PackCache {
	return &PackCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[PackKey]*list.Element),
	}
}

// Get returns the cached derived form under k, refreshing its recency. The
// returned tensor is shared and must be treated as read-only.
func (c *PackCache) Get(k PackKey) (*Tensor, bool) {
	if e := c.lookup(k); e != nil {
		return e.t, true
	}
	return nil, false
}

// lookup returns the entry under k, refreshing its recency, or nil.
func (c *PackCache) lookup(k PackKey) *packEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.stats.Misses++
		return nil
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*packEntry)
}

// Put stores a fully built derived form under k and evicts from the cold
// end until the bounds hold. The tensor must never be mutated afterwards.
func (c *PackCache) Put(k PackKey, t *Tensor) {
	if c == nil || t == nil {
		return
	}
	c.store(&packEntry{key: k, t: t, size: int64(len(t.Data()))*4 + 64})
}

// store publishes a fully built entry, replacing any previous one under its
// key, and evicts from the cold end until the bounds hold.
func (c *PackCache) store(e *packEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Puts++
	if el, ok := c.items[e.key]; ok {
		c.bytes += e.size - el.Value.(*packEntry).size
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.key] = c.ll.PushFront(e)
		c.bytes += e.size
	}
	for c.overBounds() {
		el := c.ll.Back()
		if el == nil {
			break
		}
		old := el.Value.(*packEntry)
		c.ll.Remove(el)
		delete(c.items, old.key)
		c.bytes -= old.size
		c.stats.Evictions++
	}
}

// GetOrBuild returns the derived form under k, building and publishing it
// on a miss. Concurrent builders of the same key may race; all of them
// build identical bytes (the key pins the derivation), so whichever Put
// lands last wins harmlessly.
func (c *PackCache) GetOrBuild(k PackKey, build func() *Tensor) *Tensor {
	if c == nil {
		return build()
	}
	if t, ok := c.Get(k); ok {
		return t
	}
	t := build()
	c.Put(k, t)
	return t
}

// GetOrBuildInts is GetOrBuild for derived forms that are integer tables
// (counts and indices, which float32 storage could not hold exactly). The
// same contract applies: the key pins the derivation, the returned slice is
// shared and read-only.
func (c *PackCache) GetOrBuildInts(k PackKey, build func() []int32) []int32 {
	if c == nil {
		return build()
	}
	if e := c.lookup(k); e != nil {
		return e.ints
	}
	v := build()
	c.store(&packEntry{key: k, ints: v, size: int64(len(v))*4 + 64})
	return v
}

func (c *PackCache) overBounds() bool {
	if c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		return true
	}
	return c.maxBytes > 0 && c.bytes > c.maxBytes
}

// Stats returns a snapshot of the cache's counters. Safe on a nil cache
// (all zeros), so callers can report stats without tracking enablement.
func (c *PackCache) Stats() PackStats {
	if c == nil {
		return PackStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = int64(c.ll.Len())
	st.Bytes = c.bytes
	return st
}

// CombineHash folds extra integers into a content hash, yielding the key
// hash for derived forms that depend on more geometry than PackKey.P can
// carry (e.g. a conv's full dimension/mapping tuple). It is
// allocation-free for up to 28 integers.
func CombineHash(h [32]byte, vs ...int) [32]byte {
	var buf [256]byte
	copy(buf[:32], h[:])
	n := 32
	for _, v := range vs {
		if n+8 > len(buf) {
			// Overflow: chain into a fresh hash and keep folding.
			h = sha256.Sum256(buf[:n])
			copy(buf[:32], h[:])
			n = 32
		}
		binary.LittleEndian.PutUint64(buf[n:], uint64(int64(v)))
		n += 8
	}
	return sha256.Sum256(buf[:n])
}
