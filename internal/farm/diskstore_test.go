package farm

import (
	"os"
	"path/filepath"
	"testing"
)

func diskKeys(t *testing.T, ds *DiskStore) []string {
	t.Helper()
	ents, err := os.ReadDir(ds.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, e := range ents {
		keys = append(keys, e.Name())
	}
	return keys
}

// TestDiskStoreSkipsCorruptEntries damages on-disk entries every way a
// crash or bit rot can — truncation, a flipped payload bit, a flipped
// checksum bit, garbage, an empty file — and requires the store to treat
// each as a miss, delete it, and accept a clean rewrite. No error ever
// reaches the caller.
func TestDiskStoreSkipsCorruptEntries(t *testing.T) {
	res := fakeResult(7, 25)
	corruptions := map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:10] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-9] },
		"payload-bit-flip":  func(b []byte) []byte { b[20] ^= 0x40; return b },
		"crc-bit-flip":      func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"bad-magic":         func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":       func(b []byte) []byte { b[5] = 0xEE; return b },
		"empty":             func([]byte) []byte { return nil },
		"garbage":           func([]byte) []byte { return []byte("not a result frame at all") },
		"length-lies":       func(b []byte) []byte { b[8] ^= 0x02; return b },
	}
	i := 0
	for name, corrupt := range corruptions {
		i++
		key := storeKey(i)
		t.Run(name, func(t *testing.T) {
			ds, err := NewDiskStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ds.Put(key, res)
			if _, ok := ds.Get(key); !ok {
				t.Fatal("clean entry unreadable")
			}
			path := filepath.Join(ds.Dir(), key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, ok := ds.Get(key); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupt entry not deleted")
			}
			st := ds.Stats()
			if st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1: %+v", st.Corrupt, st)
			}
			if st.Entries != 0 {
				t.Fatalf("entry accounting wrong after corruption drop: %+v", st)
			}

			// The recomputed result rewrites cleanly and round-trips.
			ds.Put(key, res)
			got, ok := ds.Get(key)
			if !ok {
				t.Fatal("rewritten entry unreadable")
			}
			if got.Stats != res.Stats {
				t.Fatalf("rewritten entry differs: %+v vs %+v", got.Stats, res.Stats)
			}
		})
	}
}

// TestFarmRecoversFromDiskCorruption runs the corruption scenario through a
// whole farm: a damaged disk entry must be recomputed transparently and the
// rewritten file must serve the next cold farm. On a replicated node the
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
				return ds, NewReplicatedStore(ds, "self", 2, []ReplicaMember{{Name: "peer", Store: tc.peer}})
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

			// Bit-flip the persisted entry between processes.
			path := filepath.Join(ds.Dir(), key)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x10
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

			// Third process: the rewrite must have healed the directory.
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
			if len(diskKeys(t, ds3)) != 1 {
				t.Fatalf("directory not clean: %v", diskKeys(t, ds3))
			}
		})
	}
}

// TestDiskStoreByteBoundEvictsOldest fills a byte-bounded store and checks
// oldest-first eviction with accurate accounting. Eviction drains to ~90%
// of the bound (amortisation), so crossing the bound removes the two
// oldest same-sized entries at a time here.
func TestDiskStoreByteBoundEvictsOldest(t *testing.T) {
	res := fakeResult(1, 100) // ~467-byte frames
	frame := int64(len(encodeResult(res)))
	ds, err := NewDiskStore(t.TempDir(), 3*frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ds.Put(storeKey(i), res)
		if st := ds.Stats(); st.Bytes > 3*frame {
			t.Fatalf("byte bound exceeded after put %d: %+v", i, st)
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
	// A reopened bounded store rebuilds its eviction index from the scan
	// and keeps enforcing the bound (by mtime for inherited entries).
	reopened, err := NewDiskStore(filepath.Dir(ds.Dir()), 3*frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 14; i++ {
		reopened.Put(storeKey(i), res)
	}
	if st := reopened.Stats(); st.Bytes > 3*frame {
		t.Fatalf("reopened store broke the bound: %+v", st)
	}
}

// TestDiskStoreUnboundedKeepsNoIndex: the default unbounded configuration
// must not accrete per-key bookkeeping — long-running servers with many
// distinct jobs would otherwise leak memory proportional to job count.
func TestDiskStoreUnboundedKeepsNoIndex(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	res := fakeResult(1, 10)
	for i := 0; i < 50; i++ {
		ds.Put(storeKey(i), res)
		if _, ok := ds.Get(storeKey(i)); !ok {
			t.Fatalf("entry %d unreadable", i)
		}
	}
	if ds.index != nil {
		t.Fatalf("unbounded store built an eviction index of %d entries", len(ds.index))
	}
	if st := ds.Stats(); st.Entries != 50 {
		t.Fatalf("entries = %d, want 50", st.Entries)
	}
}

func TestDiskStoreRejectsUnsafeKeys(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
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
