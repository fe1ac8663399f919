// Package tensor provides the dense float32 tensor type underlying the
// whole Bifrost stack: the graph executor, the CPU operator library and the
// STONNE simulator all exchange data as *tensor.Tensor values.
//
// The package is deliberately small and allocation-transparent: a Tensor is
// a shape plus a flat []float32 in row-major order. All layout conversions
// (NCHW/NHWC, KCRS/RSCK), padding and the im2col lowering used for
// GEMM-based convolution live here.
package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32

	// pooled marks tensors minted by NewPooled, the only ones Release may
	// recycle (views and plain New tensors must never re-enter the arena).
	pooled bool

	// chash memoizes ContentHash, or holds the identity SetIdentity stamped.
	// It is reset when the arena recycles the tensor; mutation after either
	// is excluded by their contracts.
	chash atomic.Pointer[[32]byte]
}

// New returns a zero-initialised tensor with the given shape.
// It panics if any dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Format a copy: handing shape itself to Sprintf would make every
			// caller's variadic slice escape, one allocation per New/NewPooled.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromData wraps an existing slice in a tensor. The slice is used directly
// (not copied). It panics if the length does not match the shape.
func FromData(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Shape returns the tensor's shape. The returned slice must not be modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the underlying flat storage in row-major order.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// ContentHash returns the SHA-256 of the tensor's element values (their
// little-endian float32 bit patterns, in row-major order), memoized on
// first use. It is the identity the content-keyed PackCache hangs derived
// operand forms on — two tensors with equal contents share every cached
// pack regardless of which object carries them. Shape is deliberately NOT
// hashed: cache keys add the geometry they depend on explicitly, and a
// reshaped view shares its storage's content identity.
//
// The memoisation makes immutability part of the contract: once a tensor
// has been content-hashed it must not be mutated (the simulation farm
// already imposes exactly this on job operands). Hashing a tensor that is
// later written produces stale keys and, through the cache, wrong packs.
func (t *Tensor) ContentHash() [32]byte {
	if p := t.chash.Load(); p != nil {
		return *p
	}
	h := sha256.New()
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(t.data)))
	h.Write(lenBuf[:])
	WriteFloatBits(h, t.data)
	var sum [32]byte
	h.Sum(sum[:0])
	t.chash.Store(&sum)
	return sum
}

// SetIdentity stamps t with id as its ContentHash, so the pack cache keys
// t's derived forms by id without reading an element. The stamp is a
// promise from the tensor's maker: t's contents are final (the contract
// ContentHash already imposes once it has memoised), and every tensor
// stamped with the same id holds the same elements. A maker derives id
// under a domain tag of its own — a generator's name and full argument
// list, say — so it can equal no other maker's id and no content hash.
// Tensors with equal contents but different identities only miss a chance
// to share packs. Pack keys live in memory only, so an identity never
// reaches a job key or a disk record.
func (t *Tensor) SetIdentity(id [32]byte) { t.chash.Store(&id) }

// WriteFloatBits streams data's little-endian float32 bit patterns into w
// through a fixed stack buffer — the canonical element encoding shared by
// ContentHash and the farm's content-addressed job keys, without an
// allocation proportional to len(data). Errors from w are ignored; the
// intended writers are hashes, which never fail.
func WriteFloatBits(w io.Writer, data []float32) {
	var buf [4096]byte
	for off := 0; off < len(data); off += len(buf) / 4 {
		chunk := data[off:min(off+len(buf)/4, len(data))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		w.Write(buf[:4*len(chunk)])
	}
}

// Reshape returns a tensor sharing storage with t but with a new shape.
// The element count must be preserved.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// offset computes the flat index for the given coordinates.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + v
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx...)] }

// Set stores v at the given coordinates.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx...)] = v }

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ShapeEq reports whether two shapes are identical.
func ShapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between a
// and b. It panics if the shapes differ.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !ShapeEq(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	var m float64
	for i := range a.data {
		d := math.Abs(float64(a.data[i]) - float64(b.data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// FirstBitDiff returns the index of the first element whose float32 bit
// pattern differs between a and b, or -1 when the tensors are bitwise
// identical. It panics if the shapes differ. This is the comparison the
// fused fast-path equivalence suites use: bitwise, not approximate.
func FirstBitDiff(a, b *Tensor) int {
	if !ShapeEq(a.shape, b.shape) {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	for i := range a.data {
		if math.Float32bits(a.data[i]) != math.Float32bits(b.data[i]) {
			return i
		}
	}
	return -1
}

// AllClose reports whether every element of a and b differs by at most tol,
// measured as |x-y| <= tol * max(1, |x|, |y|).
func AllClose(a, b *Tensor, tol float64) bool {
	if !ShapeEq(a.shape, b.shape) {
		return false
	}
	for i := range a.data {
		x, y := float64(a.data[i]), float64(b.data[i])
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		if math.Abs(x-y) > tol*scale {
			return false
		}
	}
	return true
}

// String renders a short description, e.g. "Tensor[1 3 224 224]".
func (t *Tensor) String() string {
	parts := make([]string, len(t.shape))
	for i, d := range t.shape {
		parts[i] = fmt.Sprint(d)
	}
	return "Tensor[" + strings.Join(parts, " ") + "]"
}

// nonzeroBit is 1 when v != 0 and 0 otherwise, computed without a branch
// from v's magnitude bits (±0 have none, NaN has some). Pruned weights are
// zero or not with no pattern a branch predictor could learn, so the scans
// and compactions over them count this way.
func nonzeroBit(v float32) int {
	return int((magnitudeKey(v) + 0x7fffffff) >> 31)
}

// CountNonzero returns the number of nonzero values in s, branch-free.
func CountNonzero(s []float32) int {
	n := 0
	for _, v := range s {
		n += nonzeroBit(v)
	}
	return n
}

// NNZ returns the number of nonzero elements.
func (t *Tensor) NNZ() int { return CountNonzero(t.data) }

// Sparsity returns the fraction of zero elements in [0,1].
func (t *Tensor) Sparsity() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return 1 - float64(t.NNZ())/float64(len(t.data))
}
