package farm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
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
				switch i % 3 {
				case 0:
					m.Put(key, fakeResult(i, 4))
				case 1:
					m.PutShared(key, fakeResult(i%5, 4)) // five distinct outputs, many sharers
				default:
					m.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Entries > 32 {
		t.Fatalf("bound exceeded under concurrency: %+v", st)
	}
	checkShareTable(t, m)
}

// checkShareTable asserts the memory tier's sharing invariant: every shared
// entry points at the tensor its hash names, and each tensor's reference
// count is exactly the number of entries using it.
func checkShareTable(t *testing.T, m *MemoryStore) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	refs := make(map[uint64]int)
	for el := m.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if !e.shared {
			continue
		}
		refs[e.hash]++
		if o := m.outs[e.hash]; o == nil || o.t != e.res.Out {
			t.Fatalf("shared entry %s does not point at its hash's tensor", e.key)
		}
	}
	for h, o := range m.outs {
		if o.refs != refs[h] {
			t.Fatalf("output %x counts %d references, %d entries use it", h, o.refs, refs[h])
		}
	}
}

// TestMemoryStoreSharesEqualOutputs: a seeded MAERI conv has the same
// output bits at T_K 1 and at T_K 8, so the two leave one tensor in the
// memory tier for both keys, and a write into a Wait result reaches
// neither. Outputs that differ in shape or in any bit (±0, NaN payloads)
// are not shared, nor is a disk hit promoted into memory (over a disk tier
// a computed row is not admitted to memory at all); evicting one
// sharer leaves the other intact, and the last eviction empties the table.
func TestMemoryStoreSharesEqualOutputs(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 4, H: 10, W: 10, K: 16, R: 3, S: 3, PadH: 1, PadW: 1}
	conv := func(tk int) Job {
		m := mapping.Basic()
		m.TK = tk
		return Job{HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D, Layout: tensor.NCHW, Dims: d, ConvMapping: m,
			Input: tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W), Weights: tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S), Seed: 1}
	}
	f := New(1)
	defer f.Close()
	r1, err := f.Do(conv(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := f.Do(conv(8))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key == r8.Key || r1.Stats == r8.Stats {
		t.Fatal("T_K 1 and T_K 8 must be two simulations under two keys")
	}
	e1, _ := f.mem.Get(r1.Key)
	e8, _ := f.mem.Get(r8.Key)
	if e1.Out == nil || e1.Out != e8.Out {
		t.Fatal("T_K 1 and T_K 8 hold two copies of one output")
	}
	checkShareTable(t, f.mem)
	if n := len(f.mem.outs); n != 1 {
		t.Fatalf("share table holds %d outputs, want 1", n)
	}

	want := e1.Out.Clone()
	hit, err := f.Do(conv(8))
	if err != nil || !hit.Hit {
		t.Fatalf("repeat is not a memory hit: %v", err)
	}
	for _, res := range []Result{r1, r8, hit} {
		res.Out.Fill(float32(math.NaN()))
	}
	for _, key := range []string{r1.Key, r8.Key} {
		if got, _ := f.mem.Get(key); tensor.FirstBitDiff(want, got.Out) >= 0 {
			t.Fatalf("a write into a Wait result reached the output cached under %s", key)
		}
	}

	m := NewMemoryStore(0, 0)
	put := func(key int, out *tensor.Tensor) *tensor.Tensor { return m.PutShared(storeKey(key), Result{Out: out}) }
	if a := put(0, tensor.FromData([]float32{1, 2, 3, 4}, 2, 2)); put(1, tensor.FromData([]float32{1, 2, 3, 4}, 2, 2)) != a {
		t.Fatal("an equal output was not shared")
	}
	for _, c := range []struct {
		name string
		x, y *tensor.Tensor
	}{
		{"equal bits, another shape", tensor.FromData([]float32{5, 6, 7, 8}, 2, 2), tensor.FromData([]float32{5, 6, 7, 8}, 4)},
		{"+0 against -0", tensor.FromData([]float32{0}, 1), tensor.FromData([]float32{float32(math.Copysign(0, -1))}, 1)},
		{"two NaN payloads", tensor.FromData([]float32{math.Float32frombits(0x7fc00001)}, 1), tensor.FromData([]float32{math.Float32frombits(0x7fc00002)}, 1)},
	} {
		if put(10, c.x) == put(11, c.y) {
			t.Errorf("%s: shared one tensor", c.name)
		}
	}
	checkShareTable(t, m)

	// With a disk tier a computed row waits on disk, not in memory, and a
	// disk hit promoted into memory keeps its own tensor, even when another
	// promotion holds the same bits.
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ds.Put(r8.Key, Result{Out: want, Stats: e8.Stats})
	fd := New(1, WithDiskStore(ds))
	defer fd.Close()
	for _, tk := range []int{1, 8} {
		if _, err := fd.Do(conv(tk)); err != nil {
			t.Fatal(err)
		}
	}
	if st := fd.Stats(); st.DiskHits != 1 || st.Completed != 1 {
		t.Fatalf("want one compute and one disk hit: %+v", st)
	}
	if _, ok := fd.mem.Get(r1.Key); ok {
		t.Fatal("a computed row was admitted to memory over a disk tier")
	}
	if _, err := fd.Do(conv(1)); err != nil {
		t.Fatal(err)
	}
	p1, _ := fd.mem.Get(r1.Key)
	p8, _ := fd.mem.Get(r8.Key)
	if st := fd.Stats(); st.DiskHits != 2 || st.Completed != 1 {
		t.Fatalf("want the computed row back as a disk hit: %+v", st)
	}
	if p1.Out == nil || p1.Out == p8.Out || tensor.FirstBitDiff(p1.Out, p8.Out) >= 0 {
		t.Fatal("a disk-hit promotion shared another entry's tensor, or the bits differ")
	}
	if n := len(fd.mem.outs); n != 0 {
		t.Fatalf("promotions entered %d tensors in the share table, want 0", n)
	}
	checkShareTable(t, fd.mem)

	// Eviction drops one reference at a time.
	lru := NewMemoryStore(2, 0)
	x := lru.PutShared(storeKey(0), fakeResult(7, 4))
	if lru.PutShared(storeKey(1), fakeResult(7, 4)) != x {
		t.Fatal("an equal output was not shared")
	}
	lru.Put(storeKey(2), fakeResult(8, 4)) // evicts key 0
	if got, ok := lru.Get(storeKey(1)); !ok || got.Out != x || tensor.FirstBitDiff(got.Out, fakeResult(7, 4).Out) >= 0 {
		t.Fatal("evicting one sharer disturbed the other")
	}
	checkShareTable(t, lru)
	lru.Put(storeKey(3), fakeResult(9, 4)) // evicts key 2
	lru.Put(storeKey(4), fakeResult(9, 4)) // evicts key 1, the last sharer
	if n := len(lru.outs); n != 0 {
		t.Fatalf("share table holds %d outputs after the last sharer went", n)
	}
}

// TestFarmMemoryTierBoundedByDefault: a farm given no byte bound, or a
// non-positive one (what -cache-max-bytes 0 passes), bounds its memory tier
// by DefaultMemMaxBytes, and Limits reports the bound the tier enforces.
func TestFarmMemoryTierBoundedByDefault(t *testing.T) {
	for i, opts := range [][]Option{nil, {WithMaxBytes(0)}, {WithMaxBytes(-1)}} {
		f := New(1, opts...)
		if got := f.Limits().MemMaxBytes; got != DefaultMemMaxBytes || f.mem.maxBytes != DefaultMemMaxBytes {
			t.Errorf("case %d: Limits().MemMaxBytes %d, tier bound %d; want %d", i, got, f.mem.maxBytes, DefaultMemMaxBytes)
		}
		f.Close()
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
