// Package topi is the Go equivalent of TVM's Tensor Operator Inventory: the
// CPU reference implementations of every operator the graph executor may
// encounter. Layers not offloaded to a simulated accelerator run here, and
// simulator outputs are verified against these implementations — the same
// role TVM codegen plays for Bifrost ("DNN layers not accelerated ... are
// executed using an implementation from TVM, which allows end-to-end
// evaluation and easy verification of correctness").
package topi

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Conv2DNCHW computes a 2-D convolution for an NCHW input and KCRS kernel
// via im2col + GEMM, handling groups, stride, padding and dilation.
func Conv2DNCHW(in, kernel *tensor.Tensor, d tensor.ConvDims) (*tensor.Tensor, error) {
	if err := d.Resolve(); err != nil {
		return nil, err
	}
	if !tensor.ShapeEq(in.Shape(), []int{d.N, d.C, d.H, d.W}) {
		return nil, fmt.Errorf("topi: input shape %v does not match dims NCHW=[%d %d %d %d]", in.Shape(), d.N, d.C, d.H, d.W)
	}
	if !tensor.ShapeEq(kernel.Shape(), []int{d.K, d.C / d.G, d.R, d.S}) {
		return nil, fmt.Errorf("topi: kernel shape %v does not match dims KCRS=[%d %d %d %d]", kernel.Shape(), d.K, d.C/d.G, d.R, d.S)
	}
	p, q := d.P(), d.Q()
	out := tensor.New(d.N, d.K, p, q)
	kg := d.K / d.G
	for g := 0; g < d.G; g++ {
		cols := tensor.Im2Col(in, d, g)
		km := tensor.KernelMatrix(kernel, d, g) // a view of the kernel: read, never written
		prod := tensor.GEMM(km, cols)
		for k := 0; k < kg; k++ {
			for n := 0; n < d.N; n++ {
				for y := 0; y < p; y++ {
					for x := 0; x < q; x++ {
						out.Set(prod.At(k, (n*p+y)*q+x), n, g*kg+k, y, x)
					}
				}
			}
		}
	}
	return out, nil
}

// Conv2DNHWC computes a 2-D convolution for an NHWC input and RSCK kernel.
// It is implemented by converting to the NCHW path, which keeps a single
// verified arithmetic kernel; the layouts only affect memory order.
func Conv2DNHWC(in, kernel *tensor.Tensor, d tensor.ConvDims) (*tensor.Tensor, error) {
	nchwIn := tensor.NHWCToNCHW(in)
	kcrs := tensor.RSCKToKCRS(kernel)
	out, err := Conv2DNCHW(nchwIn, kcrs, d)
	if err != nil {
		return nil, err
	}
	return tensor.NCHWToNHWC(out), nil
}

// Dense computes out = in × Wᵀ for in of shape [N, K] and weights of shape
// [S, K] (S output neurons), the layout used by PyTorch's nn.Linear.
func Dense(in, weights *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Rank() != 2 || weights.Rank() != 2 {
		return nil, fmt.Errorf("topi: dense requires 2-D input and weights, got %v, %v", in.Shape(), weights.Shape())
	}
	if in.Dim(1) != weights.Dim(1) {
		return nil, fmt.Errorf("topi: dense reduction mismatch: input %v vs weights %v", in.Shape(), weights.Shape())
	}
	return tensor.GEMM(in, weights.Transpose(1, 0)), nil
}

// BiasAdd adds a per-channel bias. For rank-4 tensors the channel axis is 1
// (NCHW); for rank-2 tensors it is the last axis.
func BiasAdd(in, bias *tensor.Tensor) (*tensor.Tensor, error) {
	out := in.Clone()
	switch in.Rank() {
	case 4:
		n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
		if bias.Size() != c {
			return nil, fmt.Errorf("topi: bias size %d does not match channels %d", bias.Size(), c)
		}
		for in4 := 0; in4 < n; in4++ {
			for ic := 0; ic < c; ic++ {
				b := bias.Data()[ic]
				base := (in4*c + ic) * h * w
				for i := 0; i < h*w; i++ {
					out.Data()[base+i] += b
				}
			}
		}
	case 2:
		n, c := in.Dim(0), in.Dim(1)
		if bias.Size() != c {
			return nil, fmt.Errorf("topi: bias size %d does not match features %d", bias.Size(), c)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < c; j++ {
				out.Data()[i*c+j] += bias.Data()[j]
			}
		}
	default:
		return nil, fmt.Errorf("topi: bias_add unsupported for rank %d", in.Rank())
	}
	return out, nil
}

// ReLU applies max(0, x) element-wise.
func ReLU(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data() {
		if v < 0 {
			out.Data()[i] = 0
		}
	}
	return out
}

// Sigmoid applies 1/(1+e^-x) element-wise.
func Sigmoid(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}

// Tanh applies tanh element-wise.
func Tanh(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	for i, v := range out.Data() {
		out.Data()[i] = float32(math.Tanh(float64(v)))
	}
	return out
}

// PoolKind selects max or average pooling.
type PoolKind int

// Pooling kinds.
const (
	MaxPool PoolKind = iota
	AvgPool
)

// Pool2D applies 2-D pooling over an NCHW tensor.
func Pool2D(in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) (*tensor.Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("topi: pool2d requires NCHW input, got %v", in.Shape())
	}
	if kernel <= 0 || stride <= 0 || pad < 0 {
		return nil, fmt.Errorf("topi: invalid pool params kernel=%d stride=%d pad=%d", kernel, stride, pad)
	}
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	p := (h+2*pad-kernel)/stride + 1
	q := (w+2*pad-kernel)/stride + 1
	if p <= 0 || q <= 0 {
		return nil, fmt.Errorf("topi: pool output would be empty")
	}
	out := tensor.New(n, c, p, q)
	inD, outD := in.Data(), out.Data()
	if grain := tensor.Grain(n*c, p*q*kernel*kernel*poolTapWork, 0); grain < n*c {
		tensor.ParallelFor(n*c, grain, func(lo, hi int) { poolPlanes(inD, outD, kind, kernel, stride, pad, h, w, p, q, lo, hi) })
	} else {
		poolPlanes(inD, outD, kind, kernel, stride, pad, h, w, p, q, 0, n*c)
	}
	return out, nil
}

// poolTapWork is one pooling-window tap's cost in tensor.ChunkWork's
// multiply-accumulate equivalents: a float64 conversion, a compare and two
// bounds checks, all scalar — about 6 ns on a 2-core Xeon VM.
const poolTapWork = 64

// poolPlanes pools the (batch, channel) planes [lo, hi) of an h×w input
// into p×q outputs.
func poolPlanes(inD, outD []float32, kind PoolKind, kernel, stride, pad, h, w, p, q, lo, hi int) {
	for plane := lo; plane < hi; plane++ {
		src := inD[plane*h*w : (plane+1)*h*w]
		dst := outD[plane*p*q : (plane+1)*p*q]
		for y := 0; y < p; y++ {
			for x := 0; x < q; x++ {
				var acc float64
				count := 0
				best := math.Inf(-1)
				for ky := 0; ky < kernel; ky++ {
					iy := y*stride - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kernel; kx++ {
						ix := x*stride - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						v := float64(src[iy*w+ix])
						acc += v
						count++
						if v > best {
							best = v
						}
					}
				}
				var v float64
				if kind == MaxPool {
					if count == 0 {
						best = 0
					}
					v = best
				} else if count > 0 {
					v = acc / float64(count)
				}
				dst[y*q+x] = float32(v)
			}
		}
	}
}

// Softmax applies a numerically stable softmax over the last axis.
func Softmax(in *tensor.Tensor) *tensor.Tensor {
	out := in.Clone()
	last := in.Dim(in.Rank() - 1)
	rows := in.Size() / last
	for r := 0; r < rows; r++ {
		row := out.Data()[r*last : (r+1)*last]
		maxV := row[0]
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			row[i] = float32(e)
			sum += e
		}
		for i := range row {
			row[i] = float32(float64(row[i]) / sum)
		}
	}
	return out
}

// LRN applies AlexNet-style local response normalisation across channels:
// b[c] = a[c] / (k + alpha/size · Σ a[c']²)^beta over a window of `size`
// channels centred at c.
//
// A centre a[c] of ±0 skips the math.Pow without moving an output bit: it
// is written straight to the output, with its sign, whenever
// k + alpha/size·Σ ≥ 1 and beta ≥ 0, since the denominator is then at least
// 1 (+Inf included) and ±0 over it is the same ±0. A NaN in the window fails
// the comparison and takes the full path. About half of AlexNet's LRN
// inputs are ReLU zeros.
func LRN(in *tensor.Tensor, size int, alpha, beta, k float64) (*tensor.Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("topi: lrn requires NCHW input, got %v", in.Shape())
	}
	if size <= 0 {
		return nil, fmt.Errorf("topi: lrn size must be positive")
	}
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	out := tensor.New(n, c, h, w)
	inD, outD := in.Data(), out.Data()
	if grain := tensor.Grain(n*c, h*w*(size+lrnPowWork), 0); grain < n*c {
		tensor.ParallelFor(n*c, grain, func(lo, hi int) { lrnChannels(inD, outD, c, h*w, size, alpha, beta, k, lo, hi) })
	} else {
		lrnChannels(inD, outD, c, h*w, size, alpha, beta, k, 0, n*c)
	}
	return out, nil
}

// lrnPowWork is one math.Pow's cost in tensor.ChunkWork's
// multiply-accumulate equivalents; it dominates an LRN element, about 55 ns
// on a 2-core Xeon VM.
const lrnPowWork = 512

// lrnChannels normalises the (batch, channel) planes [lo, hi) of an input
// with c channels of hw positions each.
func lrnChannels(inD, outD []float32, c, hw, size int, alpha, beta, k float64, lo, hi int) {
	half := size / 2
	scale := alpha / float64(size)
	zeroKeepsSign := beta >= 0
	for plane := lo; plane < hi; plane++ {
		in4, ic := plane/c, plane%c
		src := inD[in4*c*hw : (in4+1)*c*hw]
		dst := outD[in4*c*hw : (in4+1)*c*hw]
		jlo, jhi := max(0, ic-half), min(c-1, ic+half)
		for pos := 0; pos < hw; pos++ {
			var sq float64
			for j := jlo; j <= jhi; j++ {
				v := float64(src[j*hw+pos])
				sq += v * v
			}
			base := k + scale*sq
			centre := src[ic*hw+pos]
			if centre == 0 && zeroKeepsSign && base >= 1 {
				dst[ic*hw+pos] = centre
				continue
			}
			dst[ic*hw+pos] = float32(float64(centre) / math.Pow(base, beta))
		}
	}
}

// Flatten collapses all dimensions after the first into one.
func Flatten(in *tensor.Tensor) *tensor.Tensor {
	if in.Rank() < 2 {
		return in.Clone()
	}
	rest := in.Size() / in.Dim(0)
	return in.Clone().Reshape(in.Dim(0), rest)
}

// Add computes element-wise addition of equally shaped tensors.
func Add(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if !tensor.ShapeEq(a.Shape(), b.Shape()) {
		return nil, fmt.Errorf("topi: add shape mismatch %v vs %v", a.Shape(), b.Shape())
	}
	out := a.Clone()
	for i, v := range b.Data() {
		out.Data()[i] += v
	}
	return out, nil
}

// BatchNormInference applies y = gamma·(x-mean)/sqrt(var+eps) + beta per
// channel of an NCHW tensor.
func BatchNormInference(in, gamma, beta, mean, variance *tensor.Tensor, eps float64) (*tensor.Tensor, error) {
	if in.Rank() != 4 {
		return nil, fmt.Errorf("topi: batch_norm requires NCHW input, got %v", in.Shape())
	}
	c := in.Dim(1)
	for _, p := range []*tensor.Tensor{gamma, beta, mean, variance} {
		if p.Size() != c {
			return nil, fmt.Errorf("topi: batch_norm parameter size %d does not match channels %d", p.Size(), c)
		}
	}
	out := in.Clone()
	n, h, w := in.Dim(0), in.Dim(2), in.Dim(3)
	for in4 := 0; in4 < n; in4++ {
		for ic := 0; ic < c; ic++ {
			scale := float64(gamma.Data()[ic]) / math.Sqrt(float64(variance.Data()[ic])+eps)
			shift := float64(beta.Data()[ic]) - scale*float64(mean.Data()[ic])
			base := (in4*c + ic) * h * w
			for i := 0; i < h*w; i++ {
				out.Data()[base+i] = float32(scale*float64(out.Data()[base+i]) + shift)
			}
		}
	}
	return out, nil
}
