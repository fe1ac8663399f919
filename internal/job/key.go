package job

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"repro/internal/tensor"
)

// keyVersion is folded into every key. Bump it whenever the encoding or the
// simulation semantics change, so stale caches can never serve results
// computed under different rules.
const keyVersion = "bifrost/farm/v2"

// KeyVersion is the key-derivation version, exported for the peer wire
// protocol's version headers: a node deriving keys under different rules
// would file replicas under keys the receiver never looks up, so the
// receiver refuses a mismatched write with 412 instead.
const KeyVersion = keyVersion

// The two ways a key names a job's operands, written after the spec: by
// their contents, or by the generator that builds them. Distinct tags keep
// a named key from ever equalling a content key, whatever bytes the
// generator returns.
const (
	contentTag = "operands/content"
	namedTag   = "operands/named"
)

// Key returns the job's cache key: a hex-encoded SHA-256 over a canonical
// little-endian encoding of the normalised hardware configuration, operator
// kind, geometry, mapping and declared seed (appendSpec), followed by what
// names the operands.
//
//   - A named job (WithOperands) continues with a domain tag and its
//     generator's name and version. Its operands are a pure function of
//     the spec and that name, so the key never touches a tensor: a named
//     job keys like its Materialize(), and no operand is built to name it.
//   - Any other job continues with a different tag and the full operand
//     contents, so it is content-addressed: two such jobs share a key
//     exactly when they describe the same simulation.
//
// Keys are stable across processes and platforms (golden values are pinned
// by internal/farm's key_test.go and testdata/job_keys.golden; its fuzz
// targets check the equivalences). The fields that choose how a result is
// computed — ExecWorkers, and the flag that selects the oracle package — are
// deliberately excluded: neither can change the result, only the wall-clock
// time of computing it, so engine and oracle submissions share cache entries.
//
// Keys also index a farm's disk records, so any change to this encoding
// must bump both keyVersion and farm.DiskFormatVersion.
func (j Job) Key() (string, error) {
	key, _, err := j.Address()
	return key, err
}

// Address returns the job's Key and its SpecDigest from one pass over the
// spec: the hash of appendSpec's bytes is summed for the digest, then
// continued with what names the operands for the key. A farm names every
// submission with it; a named job's costs one spec hash and the key string.
func (j Job) Address() (key string, spec [sha256.Size]byte, err error) {
	var buf [specBytes]byte
	b, err := j.appendSpec(buf[:0])
	if err != nil {
		return "", spec, err
	}
	h := sha256.New()
	h.Write(b)
	h.Sum(spec[:0])
	if j.generator != "" {
		b = appendStr(appendStr(b[:0], namedTag), j.generator)
		h.Write(b)
	} else {
		b = appendStr(b[:0], contentTag)
		for _, t := range [...]*tensor.Tensor{j.Input, j.Weights} {
			h.Write(appendTensorHeader(b, t))
			b = b[:0]
			if t != nil {
				// Stream the elements through tensor's canonical chunked
				// encoder, without an allocation proportional to the
				// operand size.
				tensor.WriteFloatBits(h, t.Data())
			}
		}
	}
	var sum [sha256.Size]byte
	return hexString(h.Sum(sum[:0])), spec, nil
}

// appendSpec appends everything Key() hashes ahead of the operands' name
// to b: the normalised hardware, operator identity, seed, geometry and
// mappings. It is the single canonical encoder of a job's spec — Key()
// continues it, SpecDigest stops here. The format is self-delimiting:
// every string is length-prefixed and every integer a fixed-width
// little-endian int64, so no two distinct jobs produce the same bytes.
func (j Job) appendSpec(b []byte) ([]byte, error) {
	cfg := j.HW.Normalize()
	d := j.Dims
	if j.Kind == Conv2D {
		if err := d.Resolve(); err != nil {
			return b, err
		}
	}
	b = appendStr(b, keyVersion)

	// Hardware configuration, Table III order.
	b = appendStr(b, string(cfg.Controller))
	b = appendStr(b, string(cfg.MSNetwork))
	b = appendInts(b, cfg.MSSize, cfg.MSRows, cfg.MSCols, cfg.DNBandwidth, cfg.RNBandwidth)
	b = appendStr(b, string(cfg.ReduceNetwork))
	b = appendInts(b, cfg.SparsityRatio)
	b = appendBool(b, cfg.AccumBuffer)

	// Operator identity.
	b = appendStr(b, string(j.Kind))
	b = appendStr(b, string(j.Layout))
	b = appendBool(b, j.DryRun)
	b = binary.LittleEndian.AppendUint64(b, uint64(j.Seed)) // full 64 bits — int() would truncate on 32-bit builds

	// Geometry (conv dims are resolved so defaulted fields hash equal).
	b = appendInts(b, d.N, d.C, d.H, d.W, d.K, d.R, d.S, d.G,
		d.StrideH, d.StrideW, d.PadH, d.PadW, d.DilationH, d.DilationW)
	b = appendInts(b, j.M, j.K, j.N)

	// Mappings.
	m := j.ConvMapping
	b = appendInts(b, m.TR, m.TS, m.TC, m.TK, m.TG, m.TN, m.TX, m.TY)
	f := j.FCMapping
	return appendInts(b, f.TS, f.TK, f.TN), nil
}

// SpecDigest is a SHA-256 over exactly the bytes Key() hashes before it
// names the operands. A named job's operands are a pure function of those
// bytes and its generator's name (WithOperands), so equal digests under one
// generator mean one simulation.
func (j Job) SpecDigest() (d [sha256.Size]byte, err error) {
	var buf [specBytes]byte
	b, err := j.appendSpec(buf[:0])
	if err != nil {
		return d, err
	}
	return sha256.Sum256(b), nil
}

// Placement returns the job's ring input: SpecDigest in hex. A coordinator
// routes a job by it and a ReplicatedStore picks a persisted result's
// owners by it, so placing a job never builds or hashes an operand, and any
// node derives it from the request alone. Equal keys always have equal
// placements (the key continues the same hash), and a seeded job's operands
// are a pure function of its spec, so a placement names one simulation
// exactly as its key does.
func (j Job) Placement() (string, error) {
	d, err := j.SpecDigest()
	if err != nil {
		return "", err
	}
	return hexString(d[:]), nil
}

// hexString is hex.EncodeToString with one allocation, the string's.
func hexString(sum []byte) string {
	var dst [2 * sha256.Size]byte
	return string(dst[:hex.Encode(dst[:], sum)])
}

// specBytes sizes the stack buffer a spec is encoded into, larger than any
// spec: a few short names and 41 integers.
const specBytes = 512

func appendStr(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return appendInts(b, 1)
	}
	return appendInts(b, 0)
}

// appendTensorHeader appends an operand's header — present or not, then
// its shape and element count; Address streams the elements after it.
func appendTensorHeader(b []byte, t *tensor.Tensor) []byte {
	if t == nil {
		return appendInts(b, 0)
	}
	b = appendInts(b, 1, t.Rank())
	return appendInts(appendInts(b, t.Shape()...), t.Size())
}
