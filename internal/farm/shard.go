package farm

import (
	"hash/maphash"
	"runtime"
)

// ShardedStore is an in-memory Store split into N independently locked
// MemoryStore shards selected by key prefix. Every farm submission takes
// the memory tier's lock at least once (the synchronous Get on Submit, the
// Put on completion); under a high-throughput sweep with many workers a
// single LRU lock serialises them. Sharding bounds that contention: keys —
// hex SHA-256, uniformly distributed — spread evenly, and each shard's
// bounds are a slice of the configured totals, so the per-shard
// entry/byte bounds always sum to exactly the configured maxEntries /
// maxBytes.
//
// The trade against a single MemoryStore is eviction granularity: LRU
// order is maintained per shard, so a skewed access pattern can evict an
// entry while another shard still holds colder ones. The total bounds are
// never exceeded.
type ShardedStore struct {
	shards []*MemoryStore
	seed   maphash.Seed
}

// shardPrefixLen is how much of the key selects the shard. Eight bytes of
// a hex SHA-256 key carry 32 uniformly random bits — plenty for any
// practical shard count.
const shardPrefixLen = 8

// NewShardedStore returns a store of n locked shards (n < 1 selects 1).
// maxEntries and maxBytes are totals, distributed across shards so the
// per-shard bounds sum exactly to them; <= 0 disables that bound.
func NewShardedStore(n, maxEntries int, maxBytes int64) *ShardedStore {
	if n < 1 {
		n = 1
	}
	s := &ShardedStore{shards: make([]*MemoryStore, n), seed: maphash.MakeSeed()}
	for i := range s.shards {
		entries := 0
		if maxEntries > 0 {
			entries = maxEntries / n
			if i < maxEntries%n {
				entries++
			}
		}
		var bytes int64
		if maxBytes > 0 {
			bytes = maxBytes / int64(n)
			if int64(i) < maxBytes%int64(n) {
				bytes++
			}
		}
		s.shards[i] = NewMemoryStore(entries, bytes)
	}
	return s
}

// shard maps a key to its owning shard by hashing the key prefix.
func (s *ShardedStore) shard(key string) *MemoryStore {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	p := key
	if len(p) > shardPrefixLen {
		p = p[:shardPrefixLen]
	}
	return s.shards[maphash.String(s.seed, p)%uint64(len(s.shards))]
}

// Get implements Store.
func (s *ShardedStore) Get(key string) (Result, bool) { return s.shard(key).Get(key) }

// Put implements Store.
func (s *ShardedStore) Put(key string, res Result) { s.shard(key).Put(key, res) }

// Stats implements Store, summing the per-shard counters.
func (s *ShardedStore) Stats() StoreStats {
	var total StoreStats
	for _, sh := range s.shards {
		st := sh.Stats()
		total.Entries += st.Entries
		total.Bytes += st.Bytes
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Puts += st.Puts
		total.Evictions += st.Evictions
		total.Corrupt += st.Corrupt
		total.Errors += st.Errors
	}
	return total
}

// Close implements Store.
func (s *ShardedStore) Close() error {
	for _, sh := range s.shards {
		sh.Close()
	}
	return nil
}

// defaultStoreShards picks the farm's default shard count: enough shards
// to decongest the memory tier on big machines, clamped so each shard of a
// bounded tier still holds a meaningful LRU (tiny bounds collapse to one
// shard, preserving exact global LRU semantics where tests and small
// deployments expect them).
func defaultStoreShards(maxEntries int, maxBytes int64) int {
	shards := runtime.GOMAXPROCS(0)
	if shards > 16 {
		shards = 16
	}
	if shards < 1 {
		shards = 1
	}
	// The byte floor is generous because a shard's byte bound caps the
	// largest result it can hold at maxBytes/shards: each shard must still
	// comfortably fit multi-megabyte conv outputs, or a result the
	// unsharded store cached fine would evict its whole shard and never
	// stay resident.
	const (
		minEntriesPerShard = 64
		minBytesPerShard   = 64 << 20
	)
	if maxEntries > 0 && maxEntries/minEntriesPerShard < shards {
		shards = maxEntries / minEntriesPerShard
	}
	if maxBytes > 0 && maxBytes/minBytesPerShard < int64(shards) {
		shards = int(maxBytes / minBytesPerShard)
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}
