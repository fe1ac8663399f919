package farm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// DiskFormatVersion names the subdirectory a DiskStore keeps its segments
// under. It must be bumped together with keyVersion (key.go), with
// codecVersion below, or with the segment record layout (diskstore.go):
// entries written under different key, encoding or layout rules must never
// be visible to a store using the current ones. v1 kept one file per key;
// v2 appends key-prefixed frames to segments; v3 keeps v2's layout under
// keys that name a seeded job's operands by generator instead of content.
// The golden key values in testdata/job_keys.golden pin today's keys, so a
// key change cannot land without failing tests until both versions move.
const DiskFormatVersion = "v3"

// Frame layout of one persisted result:
//
//	magic "BFRS" | u32 codecVersion | u64 payloadLen | payload | u32 crc32(payload)
//
// The payload is a fixed-order little-endian encoding of the Stats counters
// followed by the optional output tensor (shape + raw float32 bits), so a
// decoded Result is byte-identical to the encoded one: every counter is an
// exact integer and every tensor element round-trips through
// math.Float32bits losslessly.
const (
	codecMagic   = "BFRS"
	codecVersion = 1
)

// CodecVersion is the result-frame codec version, exported for the peer
// wire protocol's version headers: a receiver speaking a different frame
// encoding refuses the write with 412, never decodes bytes under the wrong
// rules.
const CodecVersion = codecVersion

// EncodeResult serialises a Result into the versioned CRC-framed byte form
// shared by the disk tier and the peer wire protocol.
func EncodeResult(res Result) []byte { return encodeResult(res) }

// DecodeResult parses an encoded result frame, verifying magic, version,
// length and checksum end to end; any damage returns an error, which
// callers treat as a cache miss.
func DecodeResult(b []byte) (Result, error) { return decodeResult(b) }

// encodeResult serialises a Result (Stats and output tensor; the Hit, Key
// and Trace fields are transport state owned by the farm and are not
// persisted).
func encodeResult(res Result) []byte { return appendResult(nil, res) }

// appendResult appends res's frame to buf, growing it once.
func appendResult(buf []byte, res Result) []byte {
	payloadLen := 10 * 8 // stats counters + multipliers
	payloadLen++         // hasOut flag
	if res.Out != nil {
		payloadLen += 8 + 8*res.Out.Rank() + 8 + 4*res.Out.Size()
	}
	buf = slices.Grow(buf, 4+4+8+payloadLen+4)
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payloadLen))

	payloadStart := len(buf)
	st := res.Stats
	for _, v := range []int64{st.Cycles, st.MACs, st.SpatialPsums, st.AccumWrites,
		st.DNElements, st.WeightLoads, st.InputLoads, st.Steps, st.Outputs, int64(st.Multipliers)} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	if res.Out == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		shape := res.Out.Shape()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(shape)))
		for _, d := range shape {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(d)))
		}
		data := res.Out.Data()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
		for _, v := range data {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[payloadStart:]))
}

// decodeResult parses an encoded result, verifying the frame end to end.
// Any structural damage — short file, wrong magic or version, bad length,
// checksum mismatch, inconsistent tensor header — returns an error; callers
// treat that as a cache miss, never as a failure.
func decodeResult(b []byte) (Result, error) {
	const header = 4 + 4 + 8
	if len(b) < header {
		return Result{}, fmt.Errorf("farm: result frame too short (%d bytes)", len(b))
	}
	if string(b[:4]) != codecMagic {
		return Result{}, fmt.Errorf("farm: bad result magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != codecVersion {
		return Result{}, fmt.Errorf("farm: result codec version %d, want %d", v, codecVersion)
	}
	payloadLen := binary.LittleEndian.Uint64(b[8:16])
	// Bound payloadLen before any arithmetic: a corrupt length near 2^64
	// would otherwise wrap header+payloadLen+4 around and slice out of
	// bounds. Within [0, len(b)] every expression below is safe.
	if payloadLen > uint64(len(b)) || uint64(len(b)) != header+payloadLen+4 {
		return Result{}, fmt.Errorf("farm: result frame length %d does not match declared payload %d", len(b), payloadLen)
	}
	payload := b[header : header+payloadLen]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(b[header+payloadLen:]); got != want {
		return Result{}, fmt.Errorf("farm: result checksum mismatch (%08x != %08x)", got, want)
	}

	r := reader{b: payload}
	var res Result
	res.Stats = stats.Stats{
		Cycles: r.i64(), MACs: r.i64(), SpatialPsums: r.i64(), AccumWrites: r.i64(),
		DNElements: r.i64(), WeightLoads: r.i64(), InputLoads: r.i64(),
		Steps: r.i64(), Outputs: r.i64(), Multipliers: int(r.i64()),
	}
	hasOut := r.u8()
	if r.err != nil {
		return Result{}, r.err
	}
	switch hasOut {
	case 0:
		if len(r.b) != r.off {
			return Result{}, fmt.Errorf("farm: %d trailing payload bytes", len(r.b)-r.off)
		}
		return res, nil
	case 1:
	default:
		return Result{}, fmt.Errorf("farm: bad tensor flag %d", hasOut)
	}
	rank := r.i64()
	if r.err != nil || rank < 0 || rank > 16 {
		return Result{}, fmt.Errorf("farm: bad tensor rank %d", rank)
	}
	// Dimensions are bounded by the payload that must carry the elements
	// (4 bytes each), so the product cannot overflow and a corrupt header
	// cannot request a huge allocation: maxElems is at most payloadLen/4.
	maxElems := int64(len(r.b)-r.off) / 4
	shape := make([]int, rank)
	elems := int64(1)
	for i := range shape {
		d := r.i64()
		if r.err != nil || d < 0 || d > maxElems {
			return Result{}, fmt.Errorf("farm: bad tensor dimension %d", d)
		}
		shape[i] = int(d)
		if d > 0 && elems > maxElems/d {
			return Result{}, fmt.Errorf("farm: tensor shape %v overflows the payload", shape[:i+1])
		}
		elems *= d
	}
	n := r.i64()
	if r.err != nil || n != elems {
		return Result{}, fmt.Errorf("farm: tensor has %d elements, shape %v wants %d", n, shape, elems)
	}
	if rem := int64(len(r.b) - r.off); rem != 4*n {
		return Result{}, fmt.Errorf("farm: tensor payload is %d bytes, want %d", rem, 4*n)
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.b[r.off+4*i:]))
	}
	res.Out = tensor.FromData(data, shape...)
	return res, nil
}

// reader is a bounds-checked little-endian payload cursor.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.err = fmt.Errorf("farm: truncated result payload at offset %d", r.off)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = fmt.Errorf("farm: truncated result payload at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// resultFootprint estimates the resident size of a cached result in bytes,
// used by the memory tier's byte bound. It tracks the dominant term (the
// output tensor's storage) plus a fixed overhead for the struct, shape and
// map/list bookkeeping.
func resultFootprint(res Result) int64 {
	n := int64(160)
	if res.Out != nil {
		n += int64(4*res.Out.Size()) + int64(8*res.Out.Rank())
	}
	return n
}
