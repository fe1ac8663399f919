package farm

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DiskStore is the persistent tier: one file per Job.Key() under a
// versioned directory (<root>/<DiskFormatVersion>/<key>), so results
// survive process restarts and a warm directory can serve a cold process
// without a single simulator execution.
//
// Writes are crash-safe — each entry is written to a temp file in the same
// directory and atomically renamed into place, so a reader (including one
// in another process sharing the directory) only ever sees complete frames.
// Reads are corruption-tolerant: a truncated, bit-flipped or
// version-mismatched file fails the frame checks in decodeResult, is
// deleted, and reports a miss, so the farm silently recomputes and rewrites
// the entry. Callers never see a storage error.
//
// When maxBytes > 0 the store evicts least-recently-used entries until the
// total size drops to ~90% of the bound (draining below the bound
// amortises eviction over many writes instead of paying it on every one).
type DiskStore struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	bytes   int64
	entries int64
	stats   StoreStats
	// index is the in-memory eviction index: per-entry size plus a logical
	// LRU clock over the keys this process has read or written. File
	// mtimes (refreshed on every hit) order entries across processes, but
	// their granularity can be coarser than a burst of writes, so within
	// one process the sequence number is authoritative; entries only known
	// from a previous process carry seq 0 and sort older, by mtime. The
	// index exists only when the store is bounded — an unbounded store
	// never evicts and keeps no per-key state at all.
	seq   int64
	index map[string]*diskEntry
}

// diskEntry is one entry's eviction bookkeeping.
type diskEntry struct {
	size  int64
	seq   int64     // logical recency; 0 = untouched since a previous process
	mtime time.Time // cross-process tiebreak for seq-0 entries
}

// NewDiskStore opens (or creates) a persistent result store rooted at dir.
// Entries live under the DiskFormatVersion subdirectory; a directory written
// by an incompatible version is simply ignored. Leftover temp files from a
// crashed writer are removed, and the current size is recomputed by
// scanning, so shared bookkeeping never drifts across restarts.
func NewDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("farm: disk store needs a directory")
	}
	vdir := filepath.Join(dir, DiskFormatVersion)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: creating disk store: %w", err)
	}
	ds := &DiskStore{dir: vdir, maxBytes: maxBytes}
	if maxBytes > 0 {
		ds.index = make(map[string]*diskEntry)
	}
	ents, err := os.ReadDir(vdir)
	if err != nil {
		return nil, fmt.Errorf("farm: scanning disk store: %w", err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(ent.Name(), tmpPrefix) {
			os.Remove(filepath.Join(vdir, ent.Name()))
			continue
		}
		if info, err := ent.Info(); err == nil {
			ds.bytes += info.Size()
			ds.entries++
			if ds.index != nil {
				ds.index[ent.Name()] = &diskEntry{size: info.Size(), mtime: info.ModTime()}
			}
		}
	}
	ds.mu.Lock()
	ds.evictLocked() // a lowered bound takes effect on open, not first Put
	ds.mu.Unlock()
	return ds, nil
}

// Dir returns the versioned directory entries are stored in.
func (ds *DiskStore) Dir() string { return ds.dir }

// MaxBytes returns the store's configured byte bound (0 = unbounded).
func (ds *DiskStore) MaxBytes() int64 { return ds.maxBytes }

const tmpPrefix = ".tmp-"

// validKey reports whether key is a farm cache key (64 lowercase hex
// characters) and therefore a safe file name. Anything else is refused,
// which also rules out path traversal through a crafted key. It is the one
// key-shape check: the sweep log and the peer handler use it too.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (ds *DiskStore) path(key string) string { return filepath.Join(ds.dir, key) }

// Get implements Store. A hit refreshes the entry's modification time so
// LRU eviction sees it as recently used.
func (ds *DiskStore) Get(key string) (Result, bool) {
	res, ok, _ := ds.GetErr(key)
	return res, ok
}

// GetErr implements FallibleStore: like Get, but an I/O failure (anything
// other than a clean miss or a dropped corrupt entry) is returned so a
// reliability wrapper can retry it and track the tier's health.
func (ds *DiskStore) GetErr(key string) (Result, bool, error) {
	if !validKey(key) {
		ds.count(func(s *StoreStats) { s.Misses++ })
		return Result{}, false, nil
	}
	b, err := os.ReadFile(ds.path(key))
	if err != nil {
		ioErr := !os.IsNotExist(err)
		ds.count(func(s *StoreStats) {
			s.Misses++
			if ioErr {
				s.Errors++
			}
		})
		if ioErr {
			return Result{}, false, fmt.Errorf("farm: disk store read: %w", err)
		}
		return Result{}, false, nil
	}
	res, err := decodeResult(b)
	if err != nil {
		// Damaged entry: drop it so the recomputed result gets a clean slot.
		ds.remove(key)
		ds.count(func(s *StoreStats) { s.Misses++; s.Corrupt++ })
		return Result{}, false, nil
	}
	now := time.Now()
	os.Chtimes(ds.path(key), now, now) // best effort: cross-process LRU hint
	ds.mu.Lock()
	if ds.index != nil {
		ds.seq++
		ds.index[key] = &diskEntry{size: int64(len(b)), seq: ds.seq}
	}
	ds.stats.Hits++
	ds.mu.Unlock()
	return res, true, nil
}

// Put implements Store: encode, write to a temp file, fsync-free atomic
// rename, then evict cold entries if the byte bound is exceeded. Failures
// are recorded and swallowed — a result that could not be persisted is
// still served from memory.
func (ds *DiskStore) Put(key string, res Result) { ds.PutErr(key, res) }

// PutErr implements FallibleStore: like Put, but a write failure is
// returned so a reliability wrapper can retry it and track the tier's
// health.
func (ds *DiskStore) PutErr(key string, res Result) error {
	if !validKey(key) {
		return nil
	}
	res.Hit, res.Key = false, ""
	b := encodeResult(res)
	tmp, err := os.CreateTemp(ds.dir, tmpPrefix+"*")
	if err != nil {
		ds.count(func(s *StoreStats) { s.Errors++ })
		return fmt.Errorf("farm: disk store write: %w", err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		ds.count(func(s *StoreStats) { s.Errors++ })
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("farm: disk store write: %w", werr)
	}

	ds.mu.Lock()
	prev, statErr := os.Stat(ds.path(key))
	if err := os.Rename(tmp.Name(), ds.path(key)); err != nil {
		ds.mu.Unlock()
		os.Remove(tmp.Name())
		ds.count(func(s *StoreStats) { s.Errors++ })
		return fmt.Errorf("farm: disk store write: %w", err)
	}
	if statErr == nil {
		ds.bytes -= prev.Size()
	} else {
		ds.entries++
	}
	ds.bytes += int64(len(b))
	if ds.index != nil {
		ds.seq++
		ds.index[key] = &diskEntry{size: int64(len(b)), seq: ds.seq}
	}
	ds.stats.Puts++
	ds.evictLocked()
	ds.mu.Unlock()
	return nil
}

// evictLocked removes least-recently-used entries once the store exceeds
// its byte bound, draining down to ~90% of it so the O(index) sort is paid
// once per ~10% of write traffic rather than on every Put at a full steady
// state. It works entirely off the in-memory index — no directory rescan.
// ds.mu must be held.
func (ds *DiskStore) evictLocked() {
	if ds.maxBytes <= 0 || ds.bytes <= ds.maxBytes {
		return
	}
	target := ds.maxBytes - ds.maxBytes/10
	type victim struct {
		name string
		e    *diskEntry
	}
	victims := make([]victim, 0, len(ds.index))
	for name, e := range ds.index {
		victims = append(victims, victim{name, e})
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].e.seq != victims[j].e.seq {
			return victims[i].e.seq < victims[j].e.seq
		}
		return victims[i].e.mtime.Before(victims[j].e.mtime)
	})
	for _, v := range victims {
		if ds.bytes <= target {
			return
		}
		err := os.Remove(filepath.Join(ds.dir, v.name))
		if err == nil || os.IsNotExist(err) {
			// NotExist: another process already removed it; either way the
			// bytes it accounted for are gone.
			ds.bytes -= v.e.size
			ds.entries--
			delete(ds.index, v.name)
			if err == nil {
				ds.stats.Evictions++
			}
		} else {
			// The victim could not be deleted and still occupies disk. Keep
			// its accounting (the bytes really are still there) and record
			// the failure; the entry stays coldest and is retried by the
			// next eviction pass.
			ds.stats.DeleteErrors++
		}
	}
}

// remove deletes one entry and its accounting (used for corrupt files).
func (ds *DiskStore) remove(key string) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if info, err := os.Stat(ds.path(key)); err == nil {
		switch err := os.Remove(ds.path(key)); {
		case err == nil:
			ds.bytes -= info.Size()
			ds.entries--
			delete(ds.index, key)
		case !os.IsNotExist(err):
			// A corrupt entry that refuses to die: it will keep reading as a
			// miss, but the failed cleanup is worth surfacing.
			ds.stats.DeleteErrors++
		}
	}
}

func (ds *DiskStore) count(f func(*StoreStats)) {
	ds.mu.Lock()
	f(&ds.stats)
	ds.mu.Unlock()
}

// Stats implements Store.
func (ds *DiskStore) Stats() StoreStats {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	st := ds.stats
	st.Entries = ds.entries
	st.Bytes = ds.bytes
	return st
}

// Close implements Store. All writes are already durable (atomic renames),
// so there is nothing to flush.
func (ds *DiskStore) Close() error { return nil }
