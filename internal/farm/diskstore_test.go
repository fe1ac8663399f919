package farm

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// segFiles lists the files in the store's versioned directory.
func segFiles(t *testing.T, ds *DiskStore) []string {
	t.Helper()
	ents, err := os.ReadDir(ds.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// lastRecord finds key's last record among the segments in dir by its 64
// hex bytes: the segment's path and contents, and the record's offset.
func lastRecord(t *testing.T, dir, key string) (path string, b []byte, off int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.LastIndex(data, []byte(key)); i >= 0 {
			path, b, off = p, data, i
		}
	}
	if path == "" {
		t.Fatalf("no record of %s in %s", key, dir)
	}
	return path, b, off
}

// TestDiskStoreSkipsCorruptEntries damages a key's record in place every
// way a crash or bit rot can. Damage inside the record — a flipped payload
// or checksum bit, a bad magic or version, garbage, a lying length — is a
// miss counted as corrupt; a segment cut short inside the record (a torn
// tail) is a plain miss. Either way the key leaves the index, and a clean
// rewrite round-trips, also through a reopen. No error reaches the caller.
func TestDiskStoreSkipsCorruptEntries(t *testing.T) {
	res := fakeResult(7, 25)
	corruptions := map[string]struct {
		damage func(frame []byte) []byte
		torn   bool
	}{
		"truncated-header":  {func(b []byte) []byte { return b[:10] }, true},
		"truncated-payload": {func(b []byte) []byte { return b[:len(b)-9] }, true},
		"empty":             {func(b []byte) []byte { return b[:0] }, true},
		"payload-bit-flip":  {func(b []byte) []byte { b[20] ^= 0x40; return b }, false},
		"crc-bit-flip":      {func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, false},
		"bad-magic":         {func(b []byte) []byte { b[0] = 'X'; return b }, false},
		"bad-version":       {func(b []byte) []byte { b[5] = 0xEE; return b }, false},
		"garbage":           {func(b []byte) []byte { copy(b, "not a result frame at all"); return b }, false},
		"length-lies":       {func(b []byte) []byte { b[8] ^= 0x02; return b }, false},
	}
	i := 0
	for name, c := range corruptions {
		i++
		key := storeKey(i)
		t.Run(name, func(t *testing.T) {
			root := t.TempDir()
			ds, err := NewDiskStore(root, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			ds.Put(key, res)
			if _, ok := ds.Get(key); !ok {
				t.Fatal("clean entry unreadable")
			}
			path, b, off := lastRecord(t, ds.Dir(), key)
			b = append(b[:off+64], c.damage(b[off+64:])...)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := ds.Get(key); ok {
				t.Fatal("damaged record served as a hit")
			}
			want := int64(1) // damage inside the record
			if c.torn {
				want = 0 // a torn tail is a plain miss
			}
			if st := ds.Stats(); st.Corrupt != want {
				t.Fatalf("corrupt counter = %d, want %d: %+v", st.Corrupt, want, st)
			}
			if st := ds.Stats(); st.Entries != 0 {
				t.Fatalf("damaged record still indexed: %+v", st)
			}

			// The recomputed result rewrites cleanly and round-trips, and a
			// reopened store serves the rewrite.
			ds.Put(key, res)
			if got, ok := ds.Get(key); !ok || got.Stats != res.Stats {
				t.Fatalf("rewritten entry unreadable or different: ok=%v %+v", ok, got.Stats)
			}
			re, err := NewDiskStore(root, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if got, ok := re.Get(key); !ok || got.Stats != res.Stats {
				t.Fatalf("reopened store lost the rewrite: ok=%v %+v", ok, got.Stats)
			}
		})
	}
}

// TestFarmRecoversFromDiskCorruption runs the corruption scenario through a
// whole farm: a damaged record must be recomputed transparently and the
// appended rewrite must serve the next cold farm. On a replicated node the
// answer is the same — a result is a pure function of its key, so the
// corrupt frame is recomputed, not fetched from the replica that still
// holds a good copy.
func TestFarmRecoversFromDiskCorruption(t *testing.T) {
	job := convJob()
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		peer *scriptedStore // a replica member holding a good copy; nil = bare DiskStore
	}{
		{name: "disk"},
		{name: "replicated", peer: newScriptedStore()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() (*DiskStore, Store) {
				t.Helper()
				ds, err := NewDiskStore(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				if tc.peer == nil {
					return ds, ds
				}
				return ds, NewReplicatedStore(ds, "self", 2, []ReplicaMember{{Name: "peer", Store: NewRetryStore(tc.peer, RetryPolicy{})}})
			}

			ds, tier := open()
			warm := New(1, WithDiskStore(tier))
			want, err := warm.Do(job)
			warm.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.peer != nil {
				if _, puts := tc.peer.counts(); puts != 1 {
					t.Fatalf("replica received %d writes, want 1", puts)
				}
			}

			// Bit-flip the persisted record's frame between processes.
			path, b, off := lastRecord(t, ds.Dir(), key)
			b[off+64+(len(b)-off-64)/2] ^= 0x10
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}

			_, tier = open()
			cold := New(1, WithDiskStore(tier))
			got, err := cold.Do(job)
			if err != nil {
				t.Fatalf("corruption surfaced to the caller: %v", err)
			}
			if got.Hit {
				t.Fatal("corrupt entry was served as a cache hit")
			}
			if got.Stats != want.Stats {
				t.Fatalf("recomputed stats diverged: %+v vs %+v", got.Stats, want.Stats)
			}
			st := cold.Stats()
			if st.Disk == nil || st.Disk.Corrupt != 1 {
				t.Fatalf("corruption not recorded: %+v", st.Disk)
			}
			if st.Misses != 1 || st.Completed != 1 {
				t.Fatalf("expected exactly one recomputation: %+v", st)
			}
			cold.Close()
			if tc.peer != nil {
				if gets, _ := tc.peer.counts(); gets != 0 {
					t.Fatalf("replica was read %d times, want 0: a corrupt frame is recomputed", gets)
				}
			}

			// Third process: the appended rewrite supersedes the damaged
			// record, which stays behind as dead bytes.
			ds3, tier := open()
			healed := New(1, WithDiskStore(tier))
			defer healed.Close()
			res, err := healed.Do(job)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Hit || res.Stats != want.Stats {
				t.Fatalf("healed entry not served byte-identically: hit=%v stats=%+v", res.Hit, res.Stats)
			}
			if st := healed.Stats(); st.DiskHits != 1 || st.Misses != 0 {
				t.Fatalf("healed replay stats: %+v", st)
			}
			if st := ds3.Stats(); st.Entries != 1 {
				t.Fatalf("healed store indexes %d entries, want 1", st.Entries)
			}
		})
	}
}

// TestDiskStoreByteBoundEvictsOldest fills a byte-bounded store and checks
// oldest-first eviction with accurate accounting, logical and physical.
// The bound is three records, so each record rolls its own segment
// (bound/16 is smaller than one), and crossing the bound deletes the two
// oldest segments at a time (eviction drains to ~90%).
func TestDiskStoreByteBoundEvictsOldest(t *testing.T) {
	res := fakeResult(1, 100)
	rec := int64(64 + len(encodeResult(res))) // hex key + frame
	ds, err := NewDiskStore(t.TempDir(), 3*rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	onDisk := func() (n int64) {
		for _, name := range segFiles(t, ds) {
			info, err := os.Stat(filepath.Join(ds.Dir(), name))
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
		return n
	}
	for i := 0; i < 8; i++ {
		ds.Put(storeKey(i), res)
		if st := ds.Stats(); st.Bytes > 3*rec {
			t.Fatalf("byte bound exceeded after put %d: %+v", i, st)
		}
		if n := onDisk(); n > 3*rec {
			t.Fatalf("segment files hold %d bytes after put %d, bound %d", n, i, 3*rec)
		}
	}
	st := ds.Stats()
	if st.Entries != 2 {
		t.Fatalf("entries = %d, want 2: %+v", st.Entries, st)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6: %+v", st.Evictions, st)
	}
	for _, i := range []int{6, 7} {
		if _, ok := ds.Get(storeKey(i)); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
	for i := 0; i < 6; i++ {
		if _, ok := ds.Get(storeKey(i)); ok {
			t.Fatalf("old entry %d survived", i)
		}
	}
	// A reopened bounded store rebuilds its index from the scan and keeps
	// enforcing the bound.
	reopened, err := NewDiskStore(filepath.Dir(ds.Dir()), 3*rec)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for i := 10; i < 14; i++ {
		reopened.Put(storeKey(i), res)
	}
	if st := reopened.Stats(); st.Bytes > 3*rec {
		t.Fatalf("reopened store broke the bound: %+v", st)
	}
}

// TestDiskStoreIndexHasOneEntryPerLiveKey: bounded or not, the index holds
// one entry per live key, and overwriting a key appends a record without
// growing it.
func TestDiskStoreIndexHasOneEntryPerLiveKey(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for round := 0; round < 3; round++ {
		for i := 0; i < 50; i++ {
			res := fakeResult(i+round, 10)
			ds.Put(storeKey(i), res)
			if got, ok := ds.Get(storeKey(i)); !ok || got.Stats != res.Stats {
				t.Fatalf("round %d: entry %d unreadable or stale", round, i)
			}
		}
		if n := len(ds.index); n != 50 {
			t.Fatalf("round %d: index holds %d entries, want 50", round, n)
		}
		if st := ds.Stats(); st.Entries != 50 {
			t.Fatalf("round %d: entries = %d, want 50", round, st.Entries)
		}
	}
}

// TestDiskStorePutCreatesNoFile: a Put appends to the store's segment; a
// thousand of them leave one file, where one file per key would leave a
// thousand.
func TestDiskStorePutCreatesNoFile(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	res := fakeResult(3, 16)
	for i := 0; i < 1000; i++ {
		ds.Put(storeKey(i), res)
	}
	if files := segFiles(t, ds); len(files) != 1 {
		t.Fatalf("1000 puts left %d files, want 1", len(files))
	}
	if st := ds.Stats(); st.Entries != 1000 || st.Puts != 1000 {
		t.Fatalf("stats after 1000 puts: %+v", st)
	}
}

// TestDiskStoreIgnoresOldFormat: a root whose v1/ holds the previous
// format's per-key files opens empty and misses; v1/ is left exactly as it
// was, and a farm over the root recomputes byte-identical results.
func TestDiskStoreIgnoresOldFormat(t *testing.T) {
	root := t.TempDir()
	job := convJob()
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(root, "v1")
	if err := os.MkdirAll(v1, 0o755); err != nil {
		t.Fatal(err)
	}
	frame := encodeResult(want)
	for _, k := range []string{key, storeKey(1), storeKey(2)} {
		if err := os.WriteFile(filepath.Join(v1, k), frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	ds, err := NewDiskStore(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := ds.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("a v2 store indexed the v1 directory: %+v", st)
	}
	if _, ok := ds.Get(key); ok {
		t.Fatal("a v2 store served a v1 entry")
	}
	f := New(1, WithDiskStore(ds))
	got, err := f.Do(job)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got.Hit || got.Stats != want.Stats || !bytes.Equal(encodeResult(got), frame) {
		t.Fatalf("recompute over a v1 root differs: hit=%v %+v", got.Hit, got.Stats)
	}
	ents, err := os.ReadDir(v1)
	if err != nil || len(ents) != 3 {
		t.Fatalf("v1 directory changed: %d entries, %v", len(ents), err)
	}
	for _, e := range ents {
		if b, err := os.ReadFile(filepath.Join(v1, e.Name())); err != nil || !bytes.Equal(b, frame) {
			t.Fatalf("v1 file %s changed: %v", e.Name(), err)
		}
	}
}

// TestDiskStoreGetRacesEvictionAndClose runs readers against a writer whose
// puts evict whole segments, then closes the store under them. Every hit
// must be the result its key was written with, and once closed the store
// misses and refuses writes. Run it under -race: a read that reached a
// closed or reused descriptor would be a data race or a wrong result.
func TestDiskStoreGetRacesEvictionAndClose(t *testing.T) {
	const keys = 64
	res := func(i int) Result { return fakeResult(i, 32) }
	rec := int64(64 + len(encodeResult(res(0))))
	ds, err := NewDiskStore(t.TempDir(), 48*rec) // segments of three records
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % keys
				if got, ok := ds.Get(storeKey(i)); ok && got.Stats != res(i).Stats {
					t.Errorf("key %d served another key's result: %+v", i, got.Stats)
					return
				}
			}
		}(r)
	}
	for n := 0; n < 600; n++ {
		ds.Put(storeKey(n%keys), res(n%keys))
		if n == 450 {
			if err := ds.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if st := ds.Stats(); st.Evictions == 0 {
		t.Fatalf("the writer never evicted: %+v", st)
	}
	if _, ok := ds.Get(storeKey(1)); ok {
		t.Fatal("a closed store served a hit")
	}
	if err := ds.PutErr(storeKey(1), res(1)); err == nil {
		t.Fatal("a closed store accepted a write")
	}
}

func TestDiskStoreRejectsUnsafeKeys(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for _, key := range []string{"", "short", "../../../../etc/passwd",
		storeKey(1)[:63] + "Z", storeKey(1) + "0"} {
		ds.Put(key, fakeResult(1, 4))
		if _, ok := ds.Get(key); ok {
			t.Fatalf("unsafe key %q was accepted", key)
		}
	}
	if st := ds.Stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("unsafe keys touched the store: %+v", st)
	}
}

// FuzzDiskSegment opens arbitrary bytes (up to 64 KiB) as a segment file.
// Opening never panics and allocates at most the file's size plus a fixed
// 64 KiB, so a lying length cannot buy an allocation; every indexed key
// either misses or returns a result whose encoding is exactly the frame
// bytes of its record.
func FuzzDiskSegment(f *testing.F) {
	seed, err := NewDiskStore(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seed.Put(storeKey(i), fakeResult(i, 4*i))
	}
	seed.Put(storeKey(1), fakeResult(9, 3)) // supersedes the first record of key 1
	seed.Close()
	paths, _ := filepath.Glob(filepath.Join(seed.Dir(), "*.seg"))
	valid, err := os.ReadFile(paths[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail
	lying := bytes.Clone(valid)
	lying[64+8] ^= 0x80 // the first record's payload length
	f.Add(lying)
	f.Add([]byte(storeKey(5) + "BFRS"))
	root := f.TempDir() // one segment, rewritten by every input: opening creates no file
	vdir := filepath.Join(root, DiskFormatVersion)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64<<10 {
			return
		}
		if err := os.WriteFile(filepath.Join(vdir, "0000000000.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, err := NewDiskStore(root, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(data))+64<<10 {
			t.Fatalf("opening a %d-byte segment allocated %d bytes", len(data), alloc)
		}
		locs := make(map[string]diskLoc, len(ds.index))
		for id, loc := range ds.index {
			locs[hex.EncodeToString(id[:])] = loc
		}
		for key, loc := range locs {
			res, ok := ds.Get(key)
			if ok && !bytes.Equal(encodeResult(res), data[loc.off+64:loc.off+int64(loc.n)]) {
				t.Fatalf("key %s: the result served does not re-encode to its record's frame", key)
			}
		}
	})
}
