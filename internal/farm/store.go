package farm

import (
	"container/list"
	"hash/maphash"
	"sync"

	"repro/internal/tensor"
)

// Store is one tier of the farm's result cache, keyed by Job.Key(). The farm
// composes two of them — a bounded in-memory tier consulted on submission and
// a persistent disk tier consulted by the worker before simulating — but a
// Store is also usable standalone. Implementations must be safe for
// concurrent use.
//
// Get and Put carry Results whose Hit and Key fields are ignored: they are
// transport state the farm fills in per submission. Stored output tensors
// are treated as immutable by all parties: the memory tier may hold one
// tensor for several keys, so the farm hands its callers clones.
type Store interface {
	// Get returns the result stored under key, if any. A lookup may refresh
	// the entry's recency (LRU tiers) and must never surface storage errors
	// — a damaged or unreadable entry is simply a miss.
	Get(key string) (Result, bool)

	// Put stores the result under key, evicting older entries as needed to
	// honour the tier's bounds. Put never fails from the caller's view;
	// storage errors are recorded in the tier's stats.
	Put(key string, res Result)

	// Stats returns a snapshot of the tier's counters.
	Stats() StoreStats

	// Close releases the tier's resources. The farm closes the stores it
	// was configured with when the farm itself is closed.
	Close() error
}

// FallibleStore is the error-surfacing half of a Store. The plain Get/Put
// contract absorbs storage failures (a damaged entry is a miss, a failed
// write is a skipped write), which is right for the farm — but RetryStore
// needs to see the failures to retry them and to track the tier's health,
// and ReplicatedStore reads them off its members' RetryStores. *DiskStore,
// *PeerStore and *RetryStore implement it; RetryStore resolves it once with
// asFallible, so a store that cannot fail (a memory tier) needs no second
// code path.
type FallibleStore interface {
	// GetErr is Get with the storage error surfaced. A missing entry is
	// (Result{}, false, nil) — not an error; a corrupt entry that was
	// dropped for recompute is likewise a clean miss. err != nil means the
	// tier could not currently answer (I/O failure), and ok is false.
	GetErr(key string) (Result, bool, error)

	// PutErr is Put with the storage error surfaced: err != nil means the
	// result is not durably stored.
	PutErr(key string, res Result) error
}

// infallible adapts a Store that cannot report failure to FallibleStore:
// every operation succeeds.
type infallible struct{ Store }

func (s infallible) GetErr(key string) (Result, bool, error) {
	res, ok := s.Get(key)
	return res, ok, nil
}

func (s infallible) PutErr(key string, res Result) error {
	s.Put(key, res)
	return nil
}

// asFallible resolves s's error-surfacing half once, at construction.
func asFallible(s Store) FallibleStore {
	if f, ok := s.(FallibleStore); ok {
		return f
	}
	return infallible{s}
}

// LocalTier is a node's own persistent tier: a Store whose Get and Put touch
// this node's storage only, plus what Limits reports about it: Dir and
// MaxBytes (see *DiskStore, the implementation). *RetryStore passes its
// wrapped tier's through. Consumers resolve it once with asLocalTier, never
// per call.
type LocalTier interface {
	Store
	Dir() string
	MaxBytes() int64
}

// noLocalTier is the LocalTier view of a Store with no local storage (a
// memory tier, a remote peer, a test double): lookups and writes still
// reach the store, and there is nothing to report.
type noLocalTier struct{ Store }

func (noLocalTier) Dir() string     { return "" }
func (noLocalTier) MaxBytes() int64 { return 0 }

// asLocalTier resolves s's local-tier view once, at construction; nil stays
// nil (no tier at all).
func asLocalTier(s Store) LocalTier {
	switch t := s.(type) {
	case nil:
		return nil
	case LocalTier:
		return t
	}
	return noLocalTier{s}
}

// StoreStats is a snapshot of one cache tier's counters.
type StoreStats struct {
	// Entries and Bytes describe what the tier currently holds.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Get outcomes; Puts counts stores.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
	// Evictions counts entries removed to honour the tier's bounds.
	Evictions int64 `json:"evictions"`
	// Corrupt counts entries dropped because they failed validation
	// (truncated, bit-flipped or version-mismatched disk files).
	Corrupt int64 `json:"corrupt,omitempty"`
	// Errors counts I/O failures, each treated as a miss or a skipped
	// write, never surfaced to callers.
	Errors int64 `json:"errors,omitempty"`
	// DeleteErrors counts failed removals of corrupt or evicted entries —
	// entries that should be gone but may still occupy disk.
	DeleteErrors int64 `json:"delete_errors,omitempty"`
	// Retries counts operations a RetryStore wrapper re-attempted after a
	// transient failure; Trips counts the times its health breaker opened.
	Retries int64 `json:"retries,omitempty"`
	Trips   int64 `json:"trips,omitempty"`
	// Degraded reports a quarantined tier: its health breaker is open, so
	// lookups answer miss and writes are dropped until a probe succeeds.
	// The farm keeps answering — correctly, from memory and fresh
	// simulation — while the tier recovers.
	Degraded bool `json:"degraded,omitempty"`
}

// HitRatio returns the tier's hits over lookups (0 when never consulted) —
// the computed field the telemetry rollups and /stats expose.
func (s StoreStats) HitRatio() float64 {
	if s.Hits+s.Misses <= 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// MemoryStore is the in-memory tier: a map fronted by an LRU list, bounded
// by entry count and/or resident bytes. The zero bounds mean unbounded; a
// Farm always gives its memory tier a byte bound (DefaultMemMaxBytes unless
// WithMaxBytes sets one).
//
// A sweep computes many equal outputs under different keys (a MAERI conv
// has the same output bits at T_K 1 … 8, for one), so outputs stored with
// PutShared are held once: an entry whose output has the shape and the bits
// of one the tier already holds points at that tensor, which is dropped
// when the last entry using it goes.
type MemoryStore struct {
	maxEntries int
	maxBytes   int64
	seed       maphash.Seed

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	// outs holds each output PutShared stored, under a hash of its bits.
	outs  map[uint64]*sharedOut
	bytes int64
	stats StoreStats
}

// sharedOut is one output tensor and the number of entries pointing at it.
type sharedOut struct {
	t    *tensor.Tensor
	refs int
}

// lruEntry is one cached result plus its accounting. A shared entry holds
// one of outs[hash]'s references.
type lruEntry struct {
	key    string
	res    Result
	size   int64
	hash   uint64
	shared bool
}

// NewMemoryStore returns an LRU-bounded in-memory store. maxEntries <= 0
// and maxBytes <= 0 each disable that bound.
func NewMemoryStore(maxEntries int, maxBytes int64) *MemoryStore {
	return &MemoryStore{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		seed:       maphash.MakeSeed(),
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		outs:       make(map[uint64]*sharedOut),
	}
}

// Get implements Store, refreshing the entry's recency.
func (m *MemoryStore) Get(key string) (Result, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[key]
	if !ok {
		m.stats.Misses++
		return Result{}, false
	}
	m.ll.MoveToFront(el)
	m.stats.Hits++
	return el.Value.(*lruEntry).res, true
}

// Put implements Store: insert (or refresh) the entry, then evict from the
// cold end until both bounds hold. A result larger than the byte bound on
// its own is evicted immediately — the bound is absolute, not best-effort.
// The output is kept as given, never shared.
func (m *MemoryStore) Put(key string, res Result) { m.put(key, res, 0, false) }

// PutShared is Put for an output the caller has just computed: when the tier
// already holds an output PutShared stored with the same shape and the same
// bits (±0 and NaN payloads included), the entry points at that tensor. It
// returns the output the entry holds, so the caller can drop its own copy.
// The bits are hashed outside the lock; a match is confirmed bit for bit,
// so a hash collision only costs the sharing.
func (m *MemoryStore) PutShared(key string, res Result) *tensor.Tensor {
	if res.Out == nil {
		m.Put(key, res)
		return nil
	}
	var h maphash.Hash
	h.SetSeed(m.seed)
	tensor.WriteFloatBits(&h, res.Out.Data())
	return m.put(key, res, h.Sum64(), true)
}

func (m *MemoryStore) put(key string, res Result, hash uint64, share bool) *tensor.Tensor {
	res.Hit, res.Key, res.Trace = false, "", nil // canonical form: transport state is per-submission
	size := resultFootprint(res)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Puts++
	if share {
		switch o := m.outs[hash]; {
		case o == nil:
			m.outs[hash] = &sharedOut{t: res.Out, refs: 1}
		case tensor.ShapeEq(o.t.Shape(), res.Out.Shape()) && tensor.FirstBitDiff(o.t, res.Out) < 0:
			o.refs++
			res.Out = o.t
		default:
			share = false // a hash collision: this output stays its own
		}
	}
	e := &lruEntry{key: key, res: res, size: size, hash: hash, shared: share}
	if el, ok := m.items[key]; ok {
		m.drop(el.Value.(*lruEntry))
		el.Value = e
		m.ll.MoveToFront(el)
	} else {
		m.items[key] = m.ll.PushFront(e)
	}
	m.bytes += size
	for m.overBounds() {
		el := m.ll.Back()
		if el == nil {
			break
		}
		cold := m.ll.Remove(el).(*lruEntry)
		delete(m.items, cold.key)
		m.drop(cold)
		m.stats.Evictions++
	}
	return res.Out
}

// drop releases an entry's bytes and its reference to a shared output.
func (m *MemoryStore) drop(e *lruEntry) {
	m.bytes -= e.size
	if !e.shared {
		return
	}
	o := m.outs[e.hash]
	if o.refs--; o.refs == 0 {
		delete(m.outs, e.hash)
	}
}

func (m *MemoryStore) overBounds() bool {
	if m.maxEntries > 0 && m.ll.Len() > m.maxEntries {
		return true
	}
	return m.maxBytes > 0 && m.bytes > m.maxBytes
}

// Keys returns the cached keys from most to least recently used — the
// eviction order read backwards. It exists for tests and diagnostics.
func (m *MemoryStore) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, m.ll.Len())
	for el := m.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry).key)
	}
	return keys
}

// Stats implements Store.
func (m *MemoryStore) Stats() StoreStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.Entries = int64(m.ll.Len())
	st.Bytes = m.bytes
	return st
}

// Close implements Store; the memory tier has nothing to release.
func (m *MemoryStore) Close() error { return nil }
