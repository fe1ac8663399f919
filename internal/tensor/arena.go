package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements the pooled tensor and scratch arenas behind the
// allocation-free steady state: size-bucketed sync.Pools of tensors and raw
// float32 scratch, so hot simulation paths (fused convolution outputs,
// im2col panels, GEMM C-tiles) recycle their buffers instead of pressuring
// the allocator once per job. Pooling is semantically invisible — a pooled
// tensor is zeroed exactly like New's — and can be bypassed wholesale for
// tests with SetPooling(false).

// poolingOff disables the arenas when set; NewPooled then behaves exactly
// like New and Release becomes a no-op. Off is the test/bisection knob, on
// is the default.
var poolingOff atomic.Bool

// SetPooling enables or disables the tensor and scratch arenas and reports
// the previous setting. It exists so tests (and the differential harness)
// can prove pooled and unpooled executions byte-identical, and as an escape
// hatch when hunting allocator-adjacent bugs.
func SetPooling(on bool) (prev bool) {
	return !poolingOff.Swap(!on)
}

// PoolingEnabled reports whether the arenas are active.
func PoolingEnabled() bool { return !poolingOff.Load() }

// bucketBits spans capacities 1<<0 .. 1<<(numBuckets-1) (≈512M elements at
// the top); larger requests fall through to plain allocation.
const numBuckets = 30

// tensorPools holds released tensors bucketed by ceil-log2 of their element
// capacity: bucket i serves requests of up to 1<<i elements.
var tensorPools [numBuckets]sync.Pool

// scratchPools holds raw []float32 scratch, same bucketing. Scratch is NOT
// zeroed on Get — callers overwrite it entirely.
var scratchPools [numBuckets]sync.Pool

// bucketFor returns the pool bucket serving n elements, or -1 when n is out
// of the pooled range.
func bucketFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b >= numBuckets {
		return -1
	}
	return b
}

// NewPooled returns a zero-initialised tensor with the given shape, backed
// by the tensor arena when possible: the storage comes from a released
// tensor of sufficient capacity instead of a fresh allocation. The result
// is indistinguishable from New's. The caller owns the tensor; passing it
// to Release when it goes out of scope closes the recycling loop, and
// simply dropping it is always safe (the GC reclaims it like any other
// tensor).
func NewPooled(shape ...int) *Tensor {
	if poolingOff.Load() {
		return New(shape...)
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return New(shape...) // New panics with the canonical message
		}
		n *= d
	}
	b := bucketFor(n)
	if b < 0 {
		return New(shape...)
	}
	v := tensorPools[b].Get()
	if v == nil {
		t := &Tensor{shape: append(make([]int, 0, 8), shape...), data: make([]float32, n, 1<<b)}
		t.pooled = true
		return t
	}
	t := v.(*Tensor)
	t.shape = append(t.shape[:0], shape...)
	t.data = t.data[:n]
	clear(t.data)
	t.chash.Store(nil)
	return t
}

// Release returns a pooled tensor's storage to the arena. Only tensors
// minted by NewPooled are recycled — Release on any other tensor (including
// Reshape/FromData views, which alias storage the arena must never hand
// out twice) is a no-op. After Release the tensor must not be used; the
// caller must also guarantee no aliasing view (Reshape, Data) outlives the
// call.
func (t *Tensor) Release() {
	if t == nil || !t.pooled || poolingOff.Load() {
		return
	}
	b := bucketFor(cap(t.data))
	if b < 0 || cap(t.data) != 1<<b {
		return // capacity no longer matches a bucket; let the GC take it
	}
	tensorPools[b].Put(t)
}

// Compact returns t, or — when t's storage is larger than its contents, as
// an arena tensor's is unless its size is a power of two — an exact-size
// copy, releasing t. It is for results about to be held for a long time (a
// result cache entry): kept as they are they would pin the bucket's
// rounded-up capacity, up to twice their size, for the life of the holder.
// The same aliasing rule as Release applies when a copy is made.
func (t *Tensor) Compact() *Tensor {
	if t == nil || cap(t.data) == len(t.data) {
		return t
	}
	c := t.Clone()
	t.Release()
	return c
}

// scratchHeaders recycles the *[]float32 boxes scratchPools stores, so a
// get/put pair allocates nothing: getScratch empties a box into here and
// putScratch refills one.
var scratchHeaders sync.Pool

// getScratch returns a []float32 of length n whose contents are
// unspecified. Pair with putScratch.
func getScratch(n int) []float32 {
	if poolingOff.Load() {
		return make([]float32, n)
	}
	b := bucketFor(n)
	if b < 0 {
		return make([]float32, n)
	}
	if v := scratchPools[b].Get(); v != nil {
		box := v.(*[]float32)
		s := *box
		*box = nil
		scratchHeaders.Put(box)
		return s[:n]
	}
	return make([]float32, n, 1<<b)
}

// putScratch returns scratch obtained from getScratch to the arena.
func putScratch(s []float32) {
	if poolingOff.Load() {
		return
	}
	b := bucketFor(cap(s))
	if b < 0 || cap(s) != 1<<b {
		return
	}
	box, _ := scratchHeaders.Get().(*[]float32)
	if box == nil {
		box = new([]float32)
	}
	*box = s[:0]
	scratchPools[b].Put(box)
}

// GetScratch returns a length-n float32 scratch slice with unspecified
// contents from the shared arena; PutScratch recycles it. Exported for the
// engine packages that stage panels and accumulator tiles.
func GetScratch(n int) []float32 { return getScratch(n) }

// PutScratch returns a slice obtained from GetScratch to the arena.
func PutScratch(s []float32) { putScratch(s) }
