package farm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"

	"repro/internal/tensor"
)

// keyVersion is folded into every key. Bump it whenever the encoding or the
// simulation semantics change, so stale caches can never serve results
// computed under different rules.
const keyVersion = "bifrost/farm/v1"

// KeyVersion is the key-derivation version, exported for the peer wire
// protocol's version headers: a node deriving keys under different rules
// would file replicas under keys the receiver never looks up, so the
// receiver refuses a mismatched write with 412 instead.
const KeyVersion = keyVersion

// Key returns the content-addressed cache key of a job: a hex-encoded
// SHA-256 over a canonical little-endian encoding of the normalised
// hardware configuration, operator kind, geometry, mapping, declared seed
// and the full operand tensor contents. Two jobs share a key exactly when
// they describe the same simulation, and keys are stable across processes
// and platforms (golden values are pinned in key_test.go and
// testdata/job_keys.golden; the fuzz target in key_fuzz_test.go checks the
// equivalence both ways). The fields that choose how a result is computed —
// ExecWorkers, and the flag that selects the oracle package — are
// deliberately excluded: neither can change the result, only the wall-clock
// time of computing it, so engine and oracle submissions share cache entries.
//
// Keys also index the disk tier's records, so any change to this encoding
// must bump both keyVersion and DiskFormatVersion.
func (j Job) Key() (string, error) {
	j = j.Materialize() // a lazy job keys like its materialised form
	h := sha256.New()
	w := &keyWriter{h: h}
	if err := j.writeSpec(w); err != nil {
		return "", err
	}

	// Operand contents — this is what makes the key content-addressed.
	w.tensor(j.Input)
	w.tensor(j.Weights)

	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeSpec serialises everything Key() hashes ahead of the operand
// contents: the normalised hardware, operator identity, seed, geometry and
// mappings. It is the single canonical encoder of a job's spec — Key()
// continues it with the operands, specDigest stops here.
func (j Job) writeSpec(w *keyWriter) error {
	cfg := j.HW.Normalize()
	d := j.Dims
	if j.Kind == Conv2D {
		if err := d.Resolve(); err != nil {
			return err
		}
	}
	w.str(keyVersion)

	// Hardware configuration, Table III order.
	w.str(string(cfg.Controller))
	w.str(string(cfg.MSNetwork))
	w.ints(cfg.MSSize, cfg.MSRows, cfg.MSCols, cfg.DNBandwidth, cfg.RNBandwidth)
	w.str(string(cfg.ReduceNetwork))
	w.ints(cfg.SparsityRatio)
	w.bool(cfg.AccumBuffer)

	// Operator identity.
	w.str(string(j.Kind))
	w.str(string(j.Layout))
	w.bool(j.DryRun)
	w.u64(uint64(j.Seed)) // full 64 bits — int() would truncate on 32-bit builds

	// Geometry (conv dims are resolved so defaulted fields hash equal).
	w.ints(d.N, d.C, d.H, d.W, d.K, d.R, d.S, d.G,
		d.StrideH, d.StrideW, d.PadH, d.PadW, d.DilationH, d.DilationW)
	w.ints(j.M, j.K, j.N)

	// Mappings.
	m := j.ConvMapping
	w.ints(m.TR, m.TS, m.TC, m.TK, m.TG, m.TN, m.TX, m.TY)
	f := j.FCMapping
	w.ints(f.TS, f.TK, f.TN)
	return nil
}

// specDigest is the key memo's index: a SHA-256 over exactly the bytes
// Key() hashes before the operand contents. A lazy job's operands are a
// pure function of those bytes (Job.WithOperands), so equal digests mean
// equal content keys.
func (j Job) specDigest() (d [sha256.Size]byte, err error) {
	h := sha256.New()
	if err := j.writeSpec(&keyWriter{h: h}); err != nil {
		return d, err
	}
	h.Sum(d[:0])
	return d, nil
}

// Placement returns the job's ring input: the hex SHA-256 of exactly the
// bytes Key() hashes ahead of the operand contents, the digest that also
// indexes a farm's key memo. A coordinator routes a job by it and a
// ReplicatedStore picks a persisted result's owners by it, so placing a job
// never builds or hashes an operand, and any node derives it from the
// request alone. Equal keys always have equal placements (the key covers
// the spec), and a seeded job's operands are a pure function of its spec,
// so a placement names one simulation exactly as its key does.
func (j Job) Placement() (string, error) {
	d, err := j.specDigest()
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(d[:]), nil
}

// keyWriter serialises values into the hash in a fixed, self-delimiting
// format: every string is length-prefixed and every integer is a fixed-width
// little-endian int64, so no two distinct jobs can produce the same byte
// stream.
type keyWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *keyWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *keyWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w *keyWriter) ints(vs ...int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

func (w *keyWriter) bool(b bool) {
	if b {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

func (w *keyWriter) tensor(t *tensor.Tensor) {
	if t == nil {
		w.u64(0)
		return
	}
	w.u64(1)
	shape := t.Shape()
	w.u64(uint64(len(shape)))
	w.ints(shape...)
	data := t.Data()
	w.u64(uint64(len(data)))
	// Stream the elements through tensor's canonical chunked encoder: the
	// hashed bytes are identical to a single contiguous conversion, without
	// the per-submission allocation proportional to the operand size.
	tensor.WriteFloatBits(w.h, data)
}

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
// explicit tensors bypasses the memo and is hashed in full. Submit and
// every caller that needs a job's key outside a submission (journal
// replay, naming a failed row) go through here; placing a job needs only
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
	if j.operands == nil {
		key, err := j.Key()
		return key, j, [sha256.Size]byte{}, err
	}
	d, err := j.specDigest()
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
