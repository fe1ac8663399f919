package farm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// fakeResult builds a distinguishable result whose footprint is dominated
// by an n-element output tensor.
func fakeResult(id int, n int) Result {
	out := tensor.New(n)
	for i := range out.Data() {
		out.Data()[i] = float32(id)
	}
	return Result{Out: out, Stats: stats.Stats{Cycles: int64(id), MACs: int64(n)}}
}

func storeKey(i int) string { return fmt.Sprintf("%064x", i) }

func TestMemoryStoreLRUOrderAndEntryBound(t *testing.T) {
	m := NewMemoryStore(3, 0)
	for i := 0; i < 3; i++ {
		m.Put(storeKey(i), fakeResult(i, 4))
	}
	// Touch key 0 so key 1 becomes the coldest.
	if _, ok := m.Get(storeKey(0)); !ok {
		t.Fatal("key 0 missing")
	}
	if got, want := fmt.Sprint(m.Keys()), fmt.Sprint([]string{storeKey(0), storeKey(2), storeKey(1)}); got != want {
		t.Fatalf("LRU order = %v, want %v", got, want)
	}
	m.Put(storeKey(3), fakeResult(3, 4))
	if _, ok := m.Get(storeKey(1)); ok {
		t.Fatal("coldest entry survived an over-bound insert")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := m.Get(storeKey(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	st := m.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestMemoryStoreByteBound(t *testing.T) {
	const perEntry = 160 + 4*100 + 8 // resultFootprint of a rank-1, 100-element output
	m := NewMemoryStore(0, 3*perEntry)
	for i := 0; i < 10; i++ {
		m.Put(storeKey(i), fakeResult(i, 100))
		if st := m.Stats(); st.Bytes > 3*perEntry {
			t.Fatalf("byte bound exceeded after insert %d: %+v", i, st)
		}
	}
	st := m.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries = %d, want 3 under the byte bound", st.Entries)
	}
	if st.Evictions != 7 {
		t.Fatalf("evictions = %d, want 7", st.Evictions)
	}
	// The survivors are the three most recent.
	for _, i := range []int{7, 8, 9} {
		res, ok := m.Get(storeKey(i))
		if !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
		if res.Stats.Cycles != int64(i) {
			t.Fatalf("entry %d carries the wrong result: %+v", i, res.Stats)
		}
	}
	// A single result larger than the whole bound is not retained: the
	// bound is absolute.
	m.Put(storeKey(99), fakeResult(99, 10_000))
	if st := m.Stats(); st.Bytes > 3*perEntry {
		t.Fatalf("oversized result broke the byte bound: %+v", st)
	}
	if _, ok := m.Get(storeKey(99)); ok {
		t.Fatal("oversized result was retained despite exceeding the bound")
	}
}

func TestMemoryStoreUpdateInPlace(t *testing.T) {
	m := NewMemoryStore(2, 0)
	m.Put(storeKey(1), fakeResult(1, 4))
	m.Put(storeKey(1), fakeResult(2, 8))
	st := m.Stats()
	if st.Entries != 1 {
		t.Fatalf("re-putting a key duplicated the entry: %+v", st)
	}
	if want := int64(160 + 4*8 + 8); st.Bytes != want {
		t.Fatalf("bytes = %d after in-place update, want %d", st.Bytes, want)
	}
	res, ok := m.Get(storeKey(1))
	if !ok || res.Stats.Cycles != 2 {
		t.Fatalf("in-place update lost the newer result: %+v", res.Stats)
	}
}

// TestMemoryStoreConcurrent hammers one store from many goroutines (run
// under -race in CI): the farm's warm-hit fast path calls Get outside
// Farm.cmu, so puts, hits and evictions must stay coherent on their own.
func TestMemoryStoreConcurrent(t *testing.T) {
	m := NewMemoryStore(32, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := storeKey((g*31 + i) % 64)
				if i%3 == 0 {
					m.Put(key, fakeResult(i, 4))
				} else {
					m.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Entries > 32 {
		t.Fatalf("bound exceeded under concurrency: %+v", st)
	}
}

// TestFarmMemoryTierIsOneLRU: on a 16-core box a farm bounded to 1024
// entries holds exactly the 1024 most recently used results, and the next
// put evicts the coldest one — whatever way the keys hash.
func TestFarmMemoryTierIsOneLRU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(16))
	f := New(1, WithMaxEntries(1024))
	defer f.Close()
	for i := 0; i < 1024; i++ {
		f.mem.Put(storeKey(i), fakeResult(i, 4))
	}
	if st := f.Stats().Memory; st.Entries != 1024 || st.Evictions != 0 {
		t.Fatalf("after 1024 puts: %d entries, %d evictions; want 1024, 0", st.Entries, st.Evictions)
	}
	f.mem.Put(storeKey(1024), fakeResult(1024, 4))
	if _, ok := f.mem.Get(storeKey(0)); ok {
		t.Fatal("the least recently used key survived the 1025th put")
	}
	for i := 1; i <= 1024; i++ {
		if _, ok := f.mem.Get(storeKey(i)); !ok {
			t.Fatalf("key %d was evicted; only key 0 should have been", i)
		}
	}
	if st := f.Stats().Memory; st.Entries != 1024 || st.Evictions != 1 {
		t.Fatalf("after 1025 puts: %d entries, %d evictions; want 1024, 1", st.Entries, st.Evictions)
	}
}

// TestStoreStripsTransportState: cached entries must be canonical — the Hit
// flag and Key of the submission that happened to populate them must not
// leak into later hits (cold and warm processes would otherwise diverge).
func TestStoreStripsTransportState(t *testing.T) {
	m := NewMemoryStore(0, 0)
	res := fakeResult(1, 4)
	res.Hit = true
	res.Key = "stale"
	m.Put(storeKey(1), res)
	got, ok := m.Get(storeKey(1))
	if !ok {
		t.Fatal("entry missing")
	}
	if got.Hit || got.Key != "" {
		t.Fatalf("transport state leaked into the cache: hit=%v key=%q", got.Hit, got.Key)
	}
}

// TestCodecRejectsCraftedFrames feeds decodeResult frames whose length
// fields are corrupted into overflow territory: each must return an error,
// never panic (a panicking decode would kill the farm worker goroutine and
// with it the whole process — the opposite of corruption tolerance) and
// never attempt a huge allocation.
func TestCodecRejectsCraftedFrames(t *testing.T) {
	le := binary.LittleEndian
	// refix recomputes the trailing CRC after a mutation, so decoding gets
	// past the checksum and actually exercises the structural guards.
	refix := func(b []byte) []byte {
		payloadLen := le.Uint64(b[8:16])
		le.PutUint32(b[16+payloadLen:], crc32.ChecksumIEEE(b[16:16+payloadLen]))
		return b
	}
	frames := map[string][]byte{
		// payloadLen ≈ 2^64 wraps header+payloadLen+4 around to len(b).
		"payload-len-wraps": func() []byte {
			b := []byte(codecMagic)
			b = le.AppendUint32(b, codecVersion)
			b = le.AppendUint64(b, ^uint64(3)) // 2^64 - 4
			return b
		}(),
		// Tensor element count 2^62 makes 4*n wrap to 0 and would ask
		// make() for an astronomical slice.
		"element-count-wraps": func() []byte {
			b := encodeResult(fakeResult(1, 1))
			// Payload starts at 16, stats are 80 bytes, flag 1 byte →
			// rank at 97, dim at 105, element count at 113.
			le.PutUint64(b[105:], uint64(1)<<62)
			le.PutUint64(b[113:], uint64(1)<<62)
			return refix(b)
		}(),
		"rank-wraps": func() []byte {
			b := encodeResult(fakeResult(1, 1))
			le.PutUint64(b[97:], ^uint64(0))
			return refix(b)
		}(),
	}
	for name, frame := range frames {
		if _, err := decodeResult(frame); err == nil {
			t.Errorf("%s: crafted frame decoded without error", name)
		}
	}
}

func TestCodecRoundTripIsLossless(t *testing.T) {
	cases := []Result{
		{Stats: stats.Stats{Cycles: 1<<62 + 3, MACs: -1, SpatialPsums: 7, AccumWrites: 9,
			DNElements: 11, WeightLoads: 13, InputLoads: 17, Steps: 19, Outputs: 23, Multipliers: 128}},
		fakeResult(42, 37),
		{Out: tensor.FromData([]float32{0, -0, 1.5e-42, 3.4e38, float32(1) / 3}, 5)},
		{Out: tensor.New(2, 0, 3)}, // zero-element, non-zero-rank shape
	}
	for i, want := range cases {
		got, err := decodeResult(encodeResult(want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Stats != want.Stats {
			t.Fatalf("case %d: stats %+v, want %+v", i, got.Stats, want.Stats)
		}
		if (got.Out == nil) != (want.Out == nil) {
			t.Fatalf("case %d: output presence diverged", i)
		}
		if want.Out != nil {
			if !tensor.ShapeEq(got.Out.Shape(), want.Out.Shape()) {
				t.Fatalf("case %d: shape %v, want %v", i, got.Out.Shape(), want.Out.Shape())
			}
			for j := range want.Out.Data() {
				if got.Out.Data()[j] != want.Out.Data()[j] {
					t.Fatalf("case %d element %d: %v, want %v", i, j, got.Out.Data()[j], want.Out.Data()[j])
				}
			}
		}
	}
}
