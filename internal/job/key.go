package job

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

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
// and platforms (golden values are pinned by internal/farm's key_test.go and
// testdata/job_keys.golden; its FuzzKeyEquality checks the equivalence both
// ways). The fields that choose how a result is computed —
// ExecWorkers, and the flag that selects the oracle package — are
// deliberately excluded: neither can change the result, only the wall-clock
// time of computing it, so engine and oracle submissions share cache entries.
//
// Keys also index a farm's disk records, so any change to this encoding
// must bump both keyVersion and farm.DiskFormatVersion.
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
// continues it with the operands, SpecDigest stops here.
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

// SpecDigest is a SHA-256 over exactly the bytes Key() hashes before the
// operand contents. A lazy job's operands are a pure function of those
// bytes (Job.WithOperands), so equal digests mean equal content keys,
// which is what lets a farm's key memo index by it.
func (j Job) SpecDigest() (d [sha256.Size]byte, err error) {
	h := sha256.New()
	if err := j.writeSpec(&keyWriter{h: h}); err != nil {
		return d, err
	}
	h.Sum(d[:0])
	return d, nil
}

// Placement returns the job's ring input: the hex SHA-256 of exactly the
// bytes Key() hashes ahead of the operand contents (SpecDigest in hex). A coordinator routes a job by it and a
// ReplicatedStore picks a persisted result's owners by it, so placing a job
// never builds or hashes an operand, and any node derives it from the
// request alone. Equal keys always have equal placements (the key covers
// the spec), and a seeded job's operands are a pure function of its spec,
// so a placement names one simulation exactly as its key does.
func (j Job) Placement() (string, error) {
	d, err := j.SpecDigest()
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
