package farm

import (
	"container/list"
	"sync"
)

// Store is one tier of the farm's result cache, keyed by Job.Key(). The farm
// composes two of them — a bounded in-memory tier consulted on Submit and a
// persistent disk tier consulted by the worker before simulating — but a
// Store is also usable standalone. Implementations must be safe for
// concurrent use.
//
// Get and Put carry Results whose Hit and Key fields are ignored: they are
// transport state the farm fills in per submission. Stored output tensors
// are treated as immutable by all parties (the farm hands callers clones).
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
// and ReplicatedStore need to see the failures to retry them and to track
// the tier's health. *DiskStore, *PeerStore and *RetryStore implement it;
// both consumers resolve it once with asFallible, so a store that cannot
// fail (a memory tier) needs no second code path.
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
// this node's storage only, plus what the maintenance paths need from
// storage they can walk (see *DiskStore, the implementation, for each
// method's contract): Warm streams Entries, the rebalancer walks Keys and
// reads with Peek, the scrubber walks Keys and verifies with Scrub, Limits
// reports Dir and MaxBytes. *RetryStore passes its wrapped tier's through
// behind the breaker. Consumers resolve it once with asLocalTier, never
// per call.
type LocalTier interface {
	Store
	Entries(newest int, newestBytes int64, fn func(key string, res Result) bool)
	Keys(fn func(key string) bool)
	Peek(key string) (Result, bool)
	Scrub(key string) ScrubOutcome
	Dir() string
	MaxBytes() int64
}

// noLocalTier is the LocalTier view of a Store with no walkable storage (a
// memory tier, a remote peer, a test double): lookups and writes still
// reach the store, and there is nothing to list, verify or report.
type noLocalTier struct{ Store }

func (noLocalTier) Entries(int, int64, func(string, Result) bool) {}
func (noLocalTier) Keys(func(string) bool)                        {}
func (noLocalTier) Peek(string) (Result, bool)                    { return Result{}, false }
func (noLocalTier) Scrub(string) ScrubOutcome                     { return ScrubMissing }
func (noLocalTier) Dir() string                                   { return "" }
func (noLocalTier) MaxBytes() int64                               { return 0 }

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
// by entry count and/or resident bytes. The zero bounds mean unbounded,
// which is the farm's default and matches the PR-1 cache semantics.
type MemoryStore struct {
	maxEntries int
	maxBytes   int64

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	bytes int64
	stats StoreStats
}

// lruEntry is one cached result plus its accounting.
type lruEntry struct {
	key  string
	res  Result
	size int64
}

// NewMemoryStore returns an LRU-bounded in-memory store. maxEntries <= 0
// and maxBytes <= 0 each disable that bound.
func NewMemoryStore(maxEntries int, maxBytes int64) *MemoryStore {
	return &MemoryStore{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
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
func (m *MemoryStore) Put(key string, res Result) {
	res.Hit, res.Key, res.Trace = false, "", nil // canonical form: transport state is per-submission
	size := resultFootprint(res)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Puts++
	if el, ok := m.items[key]; ok {
		e := el.Value.(*lruEntry)
		m.bytes += size - e.size
		e.res, e.size = res, size
		m.ll.MoveToFront(el)
	} else {
		m.items[key] = m.ll.PushFront(&lruEntry{key: key, res: res, size: size})
		m.bytes += size
	}
	for m.overBounds() {
		el := m.ll.Back()
		if el == nil {
			break
		}
		e := el.Value.(*lruEntry)
		m.ll.Remove(el)
		delete(m.items, e.key)
		m.bytes -= e.size
		m.stats.Evictions++
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
