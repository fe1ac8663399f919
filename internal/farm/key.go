package farm

import (
	"crypto/sha256"
	"sync"
)

// keyMemoEntries bounds a farm's spec → key memo: two generations of half
// this many entries, ~150 B each (32 B digest, 64 B hex key, map overhead),
// so at most ~10 MB for a sweep of any length.
const keyMemoEntries = 1 << 16

// keyMemo remembers the content key of every lazy spec a farm has hashed.
// It lives in memory only: it is never persisted and never crosses the
// wire, so a cold process (or a peer) learns each distinct spec's key by
// building its operands once, and a key is only ever the output of Key()
// on real operands. Eviction is generational: when the current generation
// fills it becomes the old one and the previous old one is dropped, entries
// still in use being carried forward as they are looked up.
type keyMemo struct {
	mu       sync.Mutex
	cur, old map[[sha256.Size]byte]string
}

func (m *keyMemo) get(d [sha256.Size]byte) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if key, ok := m.cur[d]; ok {
		return key, true
	}
	key, ok := m.old[d]
	if ok {
		m.putLocked(d, key)
	}
	return key, ok
}

func (m *keyMemo) put(d [sha256.Size]byte, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(d, key)
}

func (m *keyMemo) putLocked(d [sha256.Size]byte, key string) {
	if m.cur == nil || len(m.cur) >= keyMemoEntries/2 {
		m.old, m.cur = m.cur, make(map[[sha256.Size]byte]string)
	}
	m.cur[d] = key
}

// KeyOf returns the job's content key — always the bytes Job.Key() produces
// — at the cost of a lookup when it can: a lazy job (Job.WithOperands)
// whose spec this farm has hashed before is answered from the farm's
// bounded in-memory memo without generating an operand. A never-seen lazy
// spec is materialised once, keyed with Key() and remembered; a job with
// explicit tensors bypasses the memo and is hashed in full. Every
// submission, and every caller that needs a job's key outside one (journal
// replay, naming a failed row), goes through here; placing a job needs only
// its Placement.
func (f *Farm) KeyOf(j Job) (string, error) {
	key, _, _, err := f.keyOf(j)
	return key, err
}

// keyOf is KeyOf that also hands back the job it keyed, materialised if
// the key had to be built — a submission that paid for the operands keeps
// them for its worker instead of generating them twice — and, for a lazy
// job, the spec digest it looked the key up by, which is the job's
// Placement. A job with explicit tensors gets the zero digest.
func (f *Farm) keyOf(j Job) (string, Job, [sha256.Size]byte, error) {
	if !j.Lazy() {
		key, err := j.Key()
		return key, j, [sha256.Size]byte{}, err
	}
	d, err := j.SpecDigest()
	if err != nil {
		return "", j, d, err
	}
	if key, ok := f.keys.get(d); ok {
		return key, j, d, nil
	}
	j = j.Materialize()
	key, err := j.Key()
	if err == nil {
		f.keys.put(d, key)
	}
	return key, j, d, err
}

// validKey reports whether key is a farm cache key (64 lowercase hex
// characters). It is the one key-shape check: the sweep log, the peer
// handler and the segment scan use it too.
func validKey[K string | []byte](key K) bool {
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
