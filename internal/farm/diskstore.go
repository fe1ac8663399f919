package farm

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// DiskStore is the persistent tier, an append-only log after Bitcask (Sheehy
// & Smith, 2010): segment files under <root>/<DiskFormatVersion>/<seq>.seg
// and an in-memory index from each live key to its newest record.
//
// A record is the key's 64 hex bytes and then the result's CRC frame
// (encodeResult). A Put is one write at the tail of this store's own
// segment: a store creates its segments O_EXCL and never appends to one it
// did not create, so stores sharing a directory never write the same file
// (each sees the others' records when it next opens). A Get is one index
// lookup and one positioned read; a miss touches no file. A record that
// fails decodeResult's checks leaves the index and reads as a miss, so the
// farm recomputes it: callers never see a storage error. Opening scans the
// record headers, oldest segment first, a later record for a key
// superseding an earlier one, up to a crashed writer's torn tail.
//
// When maxBytes > 0, past the bound the store deletes whole segments,
// oldest first, down to ~90% of it (amortising eviction over many writes).
// A read refreshes nothing: recency lives in the memory tier.
type DiskStore struct {
	dir      string
	maxBytes int64
	segMax   int64 // a segment rolls before a record would take it past this

	mu      sync.Mutex
	stats   StoreStats
	bytes   int64      // sum of segs' sizes
	segs    []*segment // ascending seq: oldest first
	active  *segment   // this store's own segment for appends; nil until a Put
	nextSeq uint32
	closed  bool
	// index has one entry per live key, by its binary form; entries hold
	// no pointer, so the collector never scans it.
	index map[[32]byte]diskLoc
}

// segment is an open segment file and the bytes this store knows it holds.
type segment struct {
	seq  uint32
	f    *os.File
	size int64
}

// diskLoc is where a key's newest record lives.
type diskLoc struct {
	seq uint32 // its segment
	n   uint32 // record length: hex key + frame
	off int64
}

const recHeader = 64 + 16 // hex key + frame header (magic, version, payload length)

// NewDiskStore opens (or creates) a persistent result store rooted at dir,
// under the DiskFormatVersion subdirectory: another version's directory is
// ignored and left as it is. The index and the byte count are rebuilt by
// scanning. Segments roll at maxBytes/16, or at 64 MiB when unbounded.
func NewDiskStore(dir string, maxBytes int64) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("farm: disk store needs a directory")
	}
	vdir := filepath.Join(dir, DiskFormatVersion)
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: creating disk store: %w", err)
	}
	ents, err := os.ReadDir(vdir)
	if err != nil {
		return nil, fmt.Errorf("farm: scanning disk store: %w", err)
	}
	ds := &DiskStore{dir: vdir, maxBytes: maxBytes, segMax: 64 << 20, index: make(map[[32]byte]diskLoc)}
	if maxBytes > 0 {
		ds.segMax = maxBytes / 16
	}
	for _, ent := range ents { // by name, so by seq: names are fixed-width
		base, ok := strings.CutSuffix(ent.Name(), ".seg")
		seq, err := strconv.ParseUint(base, 10, 32)
		if !ok || err != nil || len(base) != 10 {
			continue
		}
		f, err := os.Open(filepath.Join(vdir, ent.Name()))
		if err != nil {
			continue // an unreadable segment only costs its entries
		}
		s := &segment{seq: uint32(seq), f: f}
		s.size, _ = f.Seek(0, io.SeekEnd) // on failure 0: it only costs its entries
		ds.segs = append(ds.segs, s)
		ds.bytes += s.size
		ds.nextSeq = s.seq + 1
		// Index the records from their headers, up to one that does not fit.
		var hdr [recHeader]byte
		for off := int64(0); s.size-off >= recHeader; {
			if _, err := f.ReadAt(hdr[:], off); err != nil || !validKey(hdr[:64]) {
				break
			}
			// Bound the declared length by the file before any arithmetic.
			plen := binary.LittleEndian.Uint64(hdr[72:])
			n := recHeader + int64(plen) + 4
			if plen > uint64(s.size-off) || n > s.size-off {
				break
			}
			var id [32]byte
			hex.Decode(id[:], hdr[:64])
			ds.index[id] = diskLoc{seq: s.seq, n: uint32(n), off: off}
			off += n
		}
	}
	ds.evictLocked() // a lowered bound takes effect on open; ds is not shared yet
	return ds, nil
}

// Dir returns the versioned directory segments are stored in.
func (ds *DiskStore) Dir() string { return ds.dir }

// MaxBytes returns the store's configured byte bound (0 = unbounded).
func (ds *DiskStore) MaxBytes() int64 { return ds.maxBytes }

// keyID is a valid key's binary form, the index's key.
func keyID(key string) (id [32]byte, ok bool) {
	if !validKey(key) {
		return id, false
	}
	hex.Decode(id[:], []byte(key))
	return id, true
}

// segment returns the open segment numbered seq, or nil. Needs ds.mu.
func (ds *DiskStore) segment(seq uint32) *segment {
	i, ok := slices.BinarySearchFunc(ds.segs, seq, func(s *segment, seq uint32) int { return cmp.Compare(s.seq, seq) })
	if !ok {
		return nil
	}
	return ds.segs[i]
}

// Get implements Store.
func (ds *DiskStore) Get(key string) (Result, bool) {
	res, ok, _ := ds.GetErr(key)
	return res, ok
}

// GetErr implements FallibleStore: like Get, but an I/O failure (anything
// but a clean miss or a dropped record) is returned for a RetryStore.
func (ds *DiskStore) GetErr(key string) (Result, bool, error) {
	id, ok := keyID(key)
	ds.mu.Lock()
	loc, hit := ds.index[id]
	s := ds.segment(loc.seq)
	if !ok || !hit || s == nil {
		ds.stats.Misses++
		ds.mu.Unlock()
		return Result{}, false, nil
	}
	ds.mu.Unlock()
	// The read runs outside the lock: an eviction or Close that closes s
	// meanwhile fails it with os.ErrClosed, never aims it at another file.
	rec := make([]byte, loc.n)
	_, err := s.f.ReadAt(rec, loc.off)
	if err != nil && !errors.Is(err, os.ErrClosed) && !errors.Is(err, io.EOF) {
		ds.count(func(st *StoreStats) { st.Misses++; st.Errors++ })
		return Result{}, false, fmt.Errorf("farm: disk store read: %w", err)
	}
	if err == nil && string(rec[:64]) == key {
		if res, derr := decodeResult(rec[64:]); derr == nil {
			ds.count(func(st *StoreStats) { st.Hits++ })
			return res, true, nil
		}
	}
	// A record closed under the read, or cut short under the store, is a
	// plain miss; one read whole that fails its checks is corrupt. Either
	// way it leaves the index, and since the damage may hide the records
	// after it from the next open's scan, the next Put starts a segment.
	ds.mu.Lock()
	if ds.index[id] == loc { // not superseded meanwhile
		delete(ds.index, id)
	}
	ds.active = nil
	ds.stats.Misses++
	if err == nil {
		ds.stats.Corrupt++
	}
	ds.mu.Unlock()
	return Result{}, false, nil
}

// Put implements Store: PutErr with the error counted and swallowed.
func (ds *DiskStore) Put(key string, res Result) { ds.PutErr(key, res) }

// PutErr implements FallibleStore: one write at the tail of this store's
// own segment, returning a write failure for a RetryStore. Nothing is
// fsynced: a machine crash's torn tail is dead bytes on the next open.
func (ds *DiskStore) PutErr(key string, res Result) error {
	id, ok := keyID(key)
	if !ok {
		return nil
	}
	res.Hit, res.Key = false, ""
	rec := appendResult([]byte(key), res)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	s, err := ds.tailLocked(int64(len(rec)))
	if err == nil {
		_, err = s.f.WriteAt(rec, s.size)
	}
	if err != nil {
		ds.stats.Errors++
		return fmt.Errorf("farm: disk store write: %w", err)
	}
	ds.index[id] = diskLoc{seq: s.seq, n: uint32(len(rec)), off: s.size}
	s.size += int64(len(rec))
	ds.bytes += int64(len(rec))
	ds.stats.Puts++
	ds.evictLocked()
	return nil
}

// tailLocked returns the segment an n-byte record is appended to, creating
// one when the store has none or n would take it past segMax. Needs ds.mu.
func (ds *DiskStore) tailLocked(n int64) (*segment, error) {
	if ds.closed {
		return nil, errors.New("store closed")
	}
	if s := ds.active; s != nil && (s.size == 0 || s.size+n <= ds.segMax) {
		return s, nil
	}
	for seq := ds.nextSeq; ; seq++ {
		f, err := os.OpenFile(filepath.Join(ds.dir, fmt.Sprintf("%010d.seg", seq)), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, os.ErrExist) {
			continue // another store's segment
		}
		if err != nil {
			return nil, err
		}
		ds.nextSeq = seq + 1
		ds.active = &segment{seq: seq, f: f}
		ds.segs = append(ds.segs, ds.active)
		return ds.active, nil
	}
}

// evictLocked deletes whole segments and their keys, oldest first, from a
// store past its bound. A segment that cannot be deleted stops the pass
// with its accounting intact; the next Put retries it. Needs ds.mu.
func (ds *DiskStore) evictLocked() {
	if ds.maxBytes <= 0 || ds.bytes <= ds.maxBytes {
		return
	}
	n := 0
	for ; n < len(ds.segs) && ds.bytes > ds.maxBytes-ds.maxBytes/10; n++ {
		s := ds.segs[n]
		if err := os.Remove(s.f.Name()); err != nil && !errors.Is(err, os.ErrNotExist) {
			ds.stats.DeleteErrors++ // NotExist: another store already deleted it
			break
		}
		s.f.Close()
		ds.bytes -= s.size
		if s == ds.active {
			ds.active = nil
		}
	}
	ds.segs = slices.Delete(ds.segs, 0, n)
	for id, loc := range ds.index {
		if len(ds.segs) == 0 || loc.seq < ds.segs[0].seq {
			delete(ds.index, id)
			ds.stats.Evictions++
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
	st.Entries = int64(len(ds.index))
	st.Bytes = ds.bytes
	return st
}

// Close implements Store: it closes the segment files, after which every
// Get misses and every Put fails. Each record was written whole when its
// Put returned, so there is nothing to flush.
func (ds *DiskStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	var errs []error
	for _, s := range ds.segs {
		errs = append(errs, s.f.Close())
	}
	ds.segs, ds.active, ds.closed = nil, nil, true
	return errors.Join(errs...)
}
