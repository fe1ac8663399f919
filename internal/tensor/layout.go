package tensor

import "fmt"

// Layout identifies the memory ordering of a 4-D activation or kernel
// tensor, following the taxonomy in §V-B of the Bifrost paper.
type Layout string

// Activation and kernel layouts supported by the STONNE-Bifrost API.
// NCHW/KCRS are the PyTorch defaults; NHWC/RSCK the TensorFlow defaults.
const (
	NCHW Layout = "NCHW"
	NHWC Layout = "NHWC"
	KCRS Layout = "KCRS"
	RSCK Layout = "RSCK"
)

// KernelFor returns the kernel layout conventionally paired with an
// activation layout (NCHW→KCRS, NHWC→RSCK).
func KernelFor(l Layout) (Layout, error) {
	switch l {
	case NCHW:
		return KCRS, nil
	case NHWC:
		return RSCK, nil
	}
	return "", fmt.Errorf("tensor: no kernel layout paired with %q", l)
}

// Transpose returns a new tensor with dimensions permuted by perm, so that
// out.shape[i] == t.shape[perm[i]].
func (t *Tensor) Transpose(perm ...int) *Tensor { return t.transpose(New, perm) }

// transpose is Transpose into a tensor minted by alloc (New or NewPooled).
func (t *Tensor) transpose(alloc func(...int) *Tensor, perm []int) *Tensor {
	r := t.Rank()
	if len(perm) != r {
		panic(fmt.Sprintf("tensor: permutation %v does not match rank %d", perm, r))
	}
	seen := make([]bool, r)
	outShape := make([]int, r)
	for i, p := range perm {
		if p < 0 || p >= r || seen[p] {
			panic(fmt.Sprintf("tensor: invalid permutation %v", perm))
		}
		seen[p] = true
		outShape[i] = t.shape[p]
	}
	out := alloc(outShape...)
	// Strides of the input, row-major.
	inStride := make([]int, r)
	s := 1
	for i := r - 1; i >= 0; i-- {
		inStride[i] = s
		s *= t.shape[i]
	}
	// Walk output in row-major order, computing the source offset.
	idx := make([]int, r)
	for o := range out.data {
		src := 0
		for i := 0; i < r; i++ {
			src += idx[i] * inStride[perm[i]]
		}
		out.data[o] = t.data[src]
		for i := r - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < outShape[i] {
				break
			}
			idx[i] = 0
		}
	}
	return out
}

// Transpose2DCached returns t.Transpose(1, 0) for a 2-D tensor, served
// from the content-keyed pack cache when one is supplied — e.g. the TPU
// dense lowering transposing the same weight matrix once per sweep instead
// of once per job. The cached tensor is shared and must be treated as
// read-only.
func Transpose2DCached(t *Tensor, cache *PackCache) *Tensor {
	if cache == nil {
		return t.Transpose(1, 0)
	}
	key := PackKey{Op: "tensor/transpose10/v1", Hash: t.ContentHash(),
		P: [6]int{t.Dim(0), t.Dim(1)}}
	return cache.GetOrBuild(key, func() *Tensor { return t.Transpose(1, 0) })
}

// Transpose2DPooled is t.Transpose(1, 0) of a 2-D tensor into an arena
// tensor, for a transient the caller Releases once consumed — a dense
// layer's activation, which is new on every run and so worth recycling and
// never worth caching (compare NCHWToNHWCPooled).
func Transpose2DPooled(t *Tensor) *Tensor {
	m, k := t.Dim(0), t.Dim(1)
	out := NewPooled(k, m)
	src, dst := t.data, out.data
	for i := 0; i < m; i++ {
		for j, v := range src[i*k : (i+1)*k] {
			dst[j*m+i] = v
		}
	}
	return out
}

// KCRSToRSCKCached returns KCRSToRSCK(t), served from the content-keyed
// pack cache when one is supplied (the MAERI NCHW lowering converts the
// same kernel once per sweep instead of once per job). Shared, read-only.
func KCRSToRSCKCached(t *Tensor, cache *PackCache) *Tensor {
	if cache == nil {
		return KCRSToRSCK(t)
	}
	key := PackKey{Op: "tensor/kcrs2rsck/v1", Hash: t.ContentHash(),
		P: [6]int{t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)}}
	return cache.GetOrBuild(key, func() *Tensor { return KCRSToRSCK(t) })
}

// RSCKToKCRSCached returns RSCKToKCRS(t), content-cached like
// KCRSToRSCKCached. Shared, read-only.
func RSCKToKCRSCached(t *Tensor, cache *PackCache) *Tensor {
	if cache == nil {
		return RSCKToKCRS(t)
	}
	key := PackKey{Op: "tensor/rsck2kcrs/v1", Hash: t.ContentHash(),
		P: [6]int{t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)}}
	return cache.GetOrBuild(key, func() *Tensor { return RSCKToKCRS(t) })
}

// NCHWToNHWCCached returns NCHWToNHWC(t), content-cached like the kernel
// conversions, for callers that convert one input many times (a mapping
// sweep over a fixed layer input). The api layer does not use it: there an
// activation is seen once (NCHWToNHWCPooled). Shared, read-only.
func NCHWToNHWCCached(t *Tensor, cache *PackCache) *Tensor {
	if cache == nil {
		return NCHWToNHWC(t)
	}
	key := PackKey{Op: "tensor/nchw2nhwc/v1", Hash: t.ContentHash(),
		P: [6]int{t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)}}
	return cache.GetOrBuild(key, func() *Tensor { return NCHWToNHWC(t) })
}

// NHWCToNCHWCached returns NHWCToNCHW(t), content-cached like
// NCHWToNHWCCached. Shared, read-only.
func NHWCToNCHWCached(t *Tensor, cache *PackCache) *Tensor {
	if cache == nil {
		return NHWCToNCHW(t)
	}
	key := PackKey{Op: "tensor/nhwc2nchw/v1", Hash: t.ContentHash(),
		P: [6]int{t.Dim(0), t.Dim(1), t.Dim(2), t.Dim(3)}}
	return cache.GetOrBuild(key, func() *Tensor { return NHWCToNCHW(t) })
}

// NCHWToNHWC converts an activation tensor from NCHW to NHWC.
func NCHWToNHWC(t *Tensor) *Tensor { return t.Transpose(0, 2, 3, 1) }

// NCHWToNHWCPooled is NCHWToNHWC into an arena tensor, for a transient the
// caller Releases once consumed: a layer's activation is new on every run,
// so its transpose is worth recycling and never worth caching.
func NCHWToNHWCPooled(t *Tensor) *Tensor { return t.transpose(NewPooled, []int{0, 2, 3, 1}) }

// NHWCToNCHW converts an activation tensor from NHWC to NCHW.
func NHWCToNCHW(t *Tensor) *Tensor { return t.Transpose(0, 3, 1, 2) }

// KCRSToRSCK converts a kernel tensor from KCRS to RSCK.
func KCRSToRSCK(t *Tensor) *Tensor { return t.Transpose(2, 3, 1, 0) }

// RSCKToKCRS converts a kernel tensor from RSCK to KCRS.
func RSCKToKCRS(t *Tensor) *Tensor { return t.Transpose(3, 2, 0, 1) }

// NPQKToNKPQ converts a simulator output (NPQK, the MAERI native order) back
// to the NKPQ (= NCHW) order expected by the graph executor.
func NPQKToNKPQ(t *Tensor) *Tensor { return t.Transpose(0, 3, 1, 2) }

// NKPQToNPQK converts an NCHW-style output to the MAERI NPQK order.
func NKPQToNPQK(t *Tensor) *Tensor { return t.Transpose(0, 2, 3, 1) }

// Pad2D zero-pads the two spatial dimensions of a 4-D NCHW tensor by padH
// rows on top/bottom and padW columns on left/right.
func Pad2D(t *Tensor, padH, padW int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D requires a 4-D tensor, got %v", t.shape))
	}
	if padH == 0 && padW == 0 {
		return t.Clone()
	}
	n, c, h, w := t.shape[0], t.shape[1], t.shape[2], t.shape[3]
	out := New(n, c, h+2*padH, w+2*padW)
	oh, ow := h+2*padH, w+2*padW
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			srcBase := (in*c + ic) * h * w
			dstBase := (in*c+ic)*oh*ow + padH*ow + padW
			for y := 0; y < h; y++ {
				copy(out.data[dstBase+y*ow:dstBase+y*ow+w], t.data[srcBase+y*w:srcBase+(y+1)*w])
			}
		}
	}
	return out
}

// Pad2DNHWC zero-pads the spatial dimensions of an NHWC tensor.
func Pad2DNHWC(t *Tensor, padH, padW int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Pad2DNHWC requires a 4-D tensor, got %v", t.shape))
	}
	if padH == 0 && padW == 0 {
		return t.Clone()
	}
	return NCHWToNHWC(Pad2D(NHWCToNCHW(t), padH, padW))
}
