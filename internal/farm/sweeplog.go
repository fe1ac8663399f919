package farm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// SweepLog is the crash-safe journal behind resumable sweeps: one file per
// client sweep id recording, for each completed row of the sweep, the row's
// index and its result's content-addressed farm key. The result bytes
// themselves ride the existing disk-store machinery (CRC-framed records
// appended to segments under the versioned directory); the journal only has
// to remember *which* key answers *which* row, so a reconnecting client can
// replay every journaled row straight from the cache and recompute nothing.
//
// Records are fixed-size frames appended with a single write:
//
//	u32 row | 64-byte key | u32 crc32(row+key)
//
// Each frame carries its own checksum, so a crash mid-append leaves at most
// one torn frame at the tail; OpenSweepLog discards everything from the
// first damaged frame onward (truncating the file back to the last good
// frame; the disk store's segment scan likewise stops at a torn tail) and the
// lost rows are simply recomputed. Journals for distinct sweep ids never
// collide: the file name is the SHA-256 of the id, which also makes any
// client-chosen id a safe file name.
type SweepLog struct {
	mu   sync.Mutex
	f    *os.File
	path string
	rows map[int]string
}

const sweepRecordSize = 4 + 64 + 4

// SweepLogName maps a client sweep id onto its journal file name. Hashing
// rather than sanitising: ids are arbitrary client strings, and two ids that
// differ only in characters a sanitiser would strip must not share a journal.
func SweepLogName(id string) string {
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:]) + ".sweep"
}

// OpenSweepLog opens (or creates) the journal for sweep id under dir,
// replaying every intact record already on disk. The returned log owns the
// open file until Close.
func OpenSweepLog(dir, id string) (*SweepLog, error) {
	if dir == "" {
		return nil, fmt.Errorf("farm: sweep log needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("farm: creating sweep log dir: %w", err)
	}
	path := filepath.Join(dir, SweepLogName(id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: opening sweep log: %w", err)
	}
	l := &SweepLog{f: f, path: path, rows: make(map[int]string)}
	good, err := l.replay()
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail a crashed writer may have left, so the next append
	// starts on a frame boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("farm: truncating sweep log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("farm: seeking sweep log: %w", err)
	}
	return l, nil
}

// replay scans the journal's frames into the row map and returns the offset
// of the first damaged (or missing) frame — the point to truncate back to.
func (l *SweepLog) replay() (int64, error) {
	b, err := io.ReadAll(l.f)
	if err != nil {
		return 0, fmt.Errorf("farm: reading sweep log: %w", err)
	}
	off := 0
	for off+sweepRecordSize <= len(b) {
		rec := b[off : off+sweepRecordSize]
		sum := crc32.ChecksumIEEE(rec[:4+64])
		if binary.LittleEndian.Uint32(rec[4+64:]) != sum {
			break
		}
		row := int(binary.LittleEndian.Uint32(rec[:4]))
		key := string(rec[4 : 4+64])
		if !validKey(key) {
			break
		}
		l.rows[row] = key
		off += sweepRecordSize
	}
	return int64(off), nil
}

// Rows returns a copy of the journaled row → key map.
func (l *SweepLog) Rows() map[int]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int]string, len(l.rows))
	for r, k := range l.rows {
		out[r] = k
	}
	return out
}

// Len returns the number of journaled rows.
func (l *SweepLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.rows)
}

// Record journals one completed row. A row recorded twice keeps the latest
// key (replay applies frames in order). Records are buffered by the OS only
// — no fsync — matching the disk store's durability stance: a power cut may
// lose the newest rows, never corrupt older ones.
func (l *SweepLog) Record(row int, key string) error {
	if row < 0 || row > 1<<30 {
		return fmt.Errorf("farm: sweep log row %d out of range", row)
	}
	if !validKey(key) {
		return fmt.Errorf("farm: sweep log key %q is not a farm cache key", key)
	}
	var rec [sweepRecordSize]byte
	binary.LittleEndian.PutUint32(rec[:4], uint32(row))
	copy(rec[4:4+64], key)
	binary.LittleEndian.PutUint32(rec[4+64:], crc32.ChecksumIEEE(rec[:4+64]))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("farm: sweep log closed")
	}
	if _, err := l.f.Write(rec[:]); err != nil {
		return fmt.Errorf("farm: appending sweep log: %w", err)
	}
	l.rows[row] = key
	return nil
}

// Close releases the journal's file handle. The journal itself stays on
// disk so a later process can resume the sweep.
func (l *SweepLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// RemoveSweepLog deletes the journal for sweep id under dir, if present —
// the "start this sweep over" path a non-resume submission takes.
func RemoveSweepLog(dir, id string) error {
	if dir == "" {
		return nil
	}
	err := os.Remove(filepath.Join(dir, SweepLogName(id)))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
