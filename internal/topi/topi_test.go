package topi

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConv2DNCHWKnownValues(t *testing.T) {
	// 1×1×3×3 input, 1×1×2×2 kernel of ones: each output is the window sum.
	in := tensor.FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 1, 3, 3)
	k := tensor.FromData([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	d := tensor.ConvDims{N: 1, C: 1, H: 3, W: 3, K: 1, R: 2, S: 2}
	out, err := Conv2DNCHW(in, k, d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 16, 24, 28}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConv2DNCHWStridePad(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	k := tensor.FromData([]float32{1}, 1, 1, 1, 1)
	d := tensor.ConvDims{N: 1, C: 1, H: 2, W: 2, K: 1, R: 1, S: 1, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	out, err := Conv2DNCHW(in, k, d)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(out.Shape(), []int{1, 1, 2, 2}) {
		t.Fatalf("shape = %v", out.Shape())
	}
	// Padded corners hit zeros except the centre elements.
	want := []float32{0, 0, 0, 4}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestConv2DShapeValidation(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 2, H: 4, W: 4, K: 3, R: 2, S: 2}
	if _, err := Conv2DNCHW(tensor.New(1, 1, 4, 4), tensor.New(3, 2, 2, 2), d); err == nil {
		t.Fatal("wrong input shape must error")
	}
	if _, err := Conv2DNCHW(tensor.New(1, 2, 4, 4), tensor.New(3, 1, 2, 2), d); err == nil {
		t.Fatal("wrong kernel shape must error")
	}
}

func TestConv2DGroupedEqualsPerGroupConv(t *testing.T) {
	// A grouped conv must equal running each group as an independent conv.
	d := tensor.ConvDims{N: 1, C: 4, H: 5, W: 5, K: 6, R: 3, S: 3, G: 2}
	in := tensor.RandomUniform(1, 1, 1, 4, 5, 5)
	ker := tensor.RandomUniform(2, 1, 6, 2, 3, 3)
	out, err := Conv2DNCHW(in, ker, d)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 2; g++ {
		sub := tensor.New(1, 2, 5, 5)
		for c := 0; c < 2; c++ {
			for y := 0; y < 5; y++ {
				for x := 0; x < 5; x++ {
					sub.Set(in.At(0, g*2+c, y, x), 0, c, y, x)
				}
			}
		}
		kSub := tensor.New(3, 2, 3, 3)
		for k := 0; k < 3; k++ {
			for c := 0; c < 2; c++ {
				for r := 0; r < 3; r++ {
					for s := 0; s < 3; s++ {
						kSub.Set(ker.At(g*3+k, c, r, s), k, c, r, s)
					}
				}
			}
		}
		dg := tensor.ConvDims{N: 1, C: 2, H: 5, W: 5, K: 3, R: 3, S: 3}
		want, err := Conv2DNCHW(sub, kSub, dg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			for y := 0; y < want.Dim(2); y++ {
				for x := 0; x < want.Dim(3); x++ {
					if math.Abs(float64(out.At(0, g*3+k, y, x)-want.At(0, k, y, x))) > 1e-4 {
						t.Fatalf("group %d mismatch at k=%d y=%d x=%d", g, k, y, x)
					}
				}
			}
		}
	}
}

func TestConv2DNHWCMatchesNCHW(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := tensor.ConvDims{
			N: 1, C: 1 + rng.Intn(3), H: 4 + rng.Intn(5), W: 4 + rng.Intn(5),
			K: 1 + rng.Intn(4), R: 1 + rng.Intn(3), S: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2), PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if err := d.Resolve(); err != nil {
			return true
		}
		in := tensor.RandomUniform(seed, 1, d.N, d.C, d.H, d.W)
		ker := tensor.RandomUniform(seed+1, 1, d.K, d.C, d.R, d.S)
		a, err := Conv2DNCHW(in, ker, d)
		if err != nil {
			return false
		}
		b, err := Conv2DNHWC(tensor.NCHWToNHWC(in), tensor.KCRSToRSCK(ker), d)
		if err != nil {
			return false
		}
		return tensor.AllClose(a, tensor.NHWCToNCHW(b), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseKnownValues(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3}, 1, 3)
	w := tensor.FromData([]float32{1, 0, 0, 0, 1, 1}, 2, 3)
	out, err := Dense(in, w)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 1 || out.At(0, 1) != 5 {
		t.Fatalf("dense = %v", out.Data())
	}
}

func TestDenseValidation(t *testing.T) {
	if _, err := Dense(tensor.New(1, 3), tensor.New(2, 4)); err == nil {
		t.Fatal("reduction mismatch must error")
	}
	if _, err := Dense(tensor.New(3), tensor.New(2, 3)); err == nil {
		t.Fatal("rank mismatch must error")
	}
}

func TestBiasAdd4D(t *testing.T) {
	in := tensor.New(1, 2, 2, 2)
	bias := tensor.FromData([]float32{10, 20}, 2)
	out, err := BiasAdd(in, bias)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 1, 1) != 10 || out.At(0, 1, 0, 0) != 20 {
		t.Fatalf("bias_add = %v", out.Data())
	}
}

func TestBiasAdd2D(t *testing.T) {
	in := tensor.New(2, 3)
	bias := tensor.FromData([]float32{1, 2, 3}, 3)
	out, err := BiasAdd(in, bias)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(1, 2) != 3 || out.At(0, 0) != 1 {
		t.Fatalf("bias_add = %v", out.Data())
	}
}

func TestBiasAddSizeMismatch(t *testing.T) {
	if _, err := BiasAdd(tensor.New(1, 2, 2, 2), tensor.New(3)); err == nil {
		t.Fatal("bias size mismatch must error")
	}
	if _, err := BiasAdd(tensor.New(2), tensor.New(2)); err == nil {
		t.Fatal("rank-1 input must error")
	}
}

func TestReLU(t *testing.T) {
	in := tensor.FromData([]float32{-1, 0, 2}, 3)
	out := ReLU(in)
	if out.At(0) != 0 || out.At(1) != 0 || out.At(2) != 2 {
		t.Fatalf("relu = %v", out.Data())
	}
	if in.At(0) != -1 {
		t.Fatal("relu must not mutate input")
	}
}

func TestSigmoidTanhRange(t *testing.T) {
	in := tensor.RandomUniform(1, 10, 100)
	for _, v := range Sigmoid(in).Data() {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid out of range: %v", v)
		}
	}
	for _, v := range Tanh(in).Data() {
		if v < -1 || v > 1 {
			t.Fatalf("tanh out of range: %v", v)
		}
	}
}

func TestMaxPool(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 1, 1, 4, 4)
	out, err := Pool2D(in, MaxPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestAvgPool(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out, err := Pool2D(in, AvgPool, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0, 0) != 2.5 {
		t.Fatalf("avgpool = %v", out.Data())
	}
}

func TestPoolOverlapping(t *testing.T) {
	// AlexNet uses 3×3 pooling with stride 2 (overlapping).
	in := tensor.RandomUniform(5, 1, 1, 1, 7, 7)
	out, err := Pool2D(in, MaxPool, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(out.Shape(), []int{1, 1, 3, 3}) {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := Pool2D(tensor.New(2, 2), MaxPool, 2, 2, 0); err == nil {
		t.Fatal("rank-2 input must error")
	}
	if _, err := Pool2D(tensor.New(1, 1, 4, 4), MaxPool, 0, 2, 0); err == nil {
		t.Fatal("zero kernel must error")
	}
	if _, err := Pool2D(tensor.New(1, 1, 2, 2), MaxPool, 5, 1, 0); err == nil {
		t.Fatal("empty output must error")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		in := tensor.RandomUniform(seed, 5, 3, 7)
		out := Softmax(in)
		for r := 0; r < 3; r++ {
			var sum float64
			for c := 0; c < 7; c++ {
				v := float64(out.At(r, c))
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStability(t *testing.T) {
	in := tensor.FromData([]float32{1000, 1001}, 1, 2)
	out := Softmax(in)
	if math.IsNaN(float64(out.At(0, 0))) || math.IsInf(float64(out.At(0, 1)), 0) {
		t.Fatalf("softmax unstable: %v", out.Data())
	}
}

func TestLRNIdentityWhenAlphaZero(t *testing.T) {
	in := tensor.RandomUniform(2, 1, 1, 4, 3, 3)
	out, err := LRN(in, 5, 0, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(in, out) > 1e-6 {
		t.Fatal("alpha=0, k=1 LRN must be identity")
	}
}

func TestLRNReducesMagnitude(t *testing.T) {
	in := tensor.New(1, 3, 1, 1)
	in.Fill(2)
	out, err := LRN(in, 3, 1, 0.75, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if out.At(0, c, 0, 0) >= in.At(0, c, 0, 0) {
			t.Fatal("LRN with positive alpha must shrink values here")
		}
	}
}

func TestLRNValidation(t *testing.T) {
	if _, err := LRN(tensor.New(2, 2), 5, 1e-4, 0.75, 2); err == nil {
		t.Fatal("rank-2 input must error")
	}
	if _, err := LRN(tensor.New(1, 1, 2, 2), 0, 1e-4, 0.75, 2); err == nil {
		t.Fatal("size 0 must error")
	}
}

func TestFlatten(t *testing.T) {
	in := tensor.New(2, 3, 4)
	out := Flatten(in)
	if !tensor.ShapeEq(out.Shape(), []int{2, 12}) {
		t.Fatalf("shape = %v", out.Shape())
	}
}

func TestAdd(t *testing.T) {
	a := tensor.FromData([]float32{1, 2}, 2)
	b := tensor.FromData([]float32{3, 4}, 2)
	out, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0) != 4 || out.At(1) != 6 {
		t.Fatalf("add = %v", out.Data())
	}
	if _, err := Add(a, tensor.New(3)); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestBatchNormInference(t *testing.T) {
	in := tensor.FromData([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	gamma := tensor.FromData([]float32{2}, 1)
	beta := tensor.FromData([]float32{1}, 1)
	mean := tensor.FromData([]float32{2}, 1)
	variance := tensor.FromData([]float32{4}, 1)
	out, err := BatchNormInference(in, gamma, beta, mean, variance, 0)
	if err != nil {
		t.Fatal(err)
	}
	// y = 2*(x-2)/2 + 1 = x - 1
	want := []float32{0, 1, 2, 3}
	for i, v := range out.Data() {
		if math.Abs(float64(v-want[i])) > 1e-5 {
			t.Fatalf("bn[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestBatchNormValidation(t *testing.T) {
	p1 := tensor.New(1)
	p2 := tensor.New(2)
	if _, err := BatchNormInference(tensor.New(2, 2), p1, p1, p1, p1, 1e-5); err == nil {
		t.Fatal("rank-2 input must error")
	}
	if _, err := BatchNormInference(tensor.New(1, 1, 2, 2), p2, p1, p1, p1, 1e-5); err == nil {
		t.Fatal("parameter size mismatch must error")
	}
}

// refLRN and refPool2D are LRN and Pool2D as they were before they indexed
// their operands directly: every element goes through the bounds-checked
// variadic Tensor.At / Set. They are the oracles for the output bits.
func refLRN(in *tensor.Tensor, size int, alpha, beta, k float64) *tensor.Tensor {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	out := tensor.New(n, c, h, w)
	half := size / 2
	for in4 := 0; in4 < n; in4++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for ic := 0; ic < c; ic++ {
					var sq float64
					for j := max(0, ic-half); j <= min(c-1, ic+half); j++ {
						v := float64(in.At(in4, j, y, x))
						sq += v * v
					}
					denom := math.Pow(k+alpha/float64(size)*sq, beta)
					out.Set(float32(float64(in.At(in4, ic, y, x))/denom), in4, ic, y, x)
				}
			}
		}
	}
	return out
}

func refPool2D(in *tensor.Tensor, kind PoolKind, kernel, stride, pad int) *tensor.Tensor {
	n, c, h, w := in.Dim(0), in.Dim(1), in.Dim(2), in.Dim(3)
	p := (h+2*pad-kernel)/stride + 1
	q := (w+2*pad-kernel)/stride + 1
	out := tensor.New(n, c, p, q)
	for in4 := 0; in4 < n; in4++ {
		for ic := 0; ic < c; ic++ {
			for y := 0; y < p; y++ {
				for x := 0; x < q; x++ {
					var acc float64
					count := 0
					best := math.Inf(-1)
					for ky := 0; ky < kernel; ky++ {
						for kx := 0; kx < kernel; kx++ {
							iy := y*stride - pad + ky
							ix := x*stride - pad + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= w {
								continue
							}
							v := float64(in.At(in4, ic, iy, ix))
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
					out.Set(float32(v), in4, ic, y, x)
				}
			}
		}
	}
	return out
}

// TestLRNAndPoolMatchIndexedOracle compares the direct-indexing LRN and
// Pool2D with the At/Set implementations bit for bit: AlexNet's two LRN
// shapes (window 5 clipped at both channel edges), and pools that are
// padded, strided, overlapping and — with padding past the kernel — see
// windows that are empty or cut on every side. LRN also runs over ReLU'd
// inputs holding +0 and −0 centres (the zero-centre shortcut), a NaN beside
// a zero centre, k = alpha = 0 (a zero base that must reach math.Pow) and
// negative or special betas.
func TestLRNAndPoolMatchIndexedOracle(t *testing.T) {
	for i, shape := range [][]int{{1, 96, 55, 55}, {1, 256, 27, 27}, {2, 3, 4, 5}} {
		in := tensor.RandomUniform(int64(i), 3, shape...)
		got, err := LRN(in, 5, 1e-4, 0.75, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.FirstBitDiff(refLRN(in, 5, 1e-4, 0.75, 2), got); d >= 0 {
			t.Fatalf("LRN %v diverges from the indexed oracle at element %d", shape, d)
		}
	}
	negZero := float32(math.Copysign(0, -1))
	relu := tensor.RandomUniform(7, 3, 2, 9, 6, 7)
	for i, v := range relu.Data() {
		if v < 0 {
			relu.Data()[i] = 0
			if i%3 == 0 {
				relu.Data()[i] = negZero
			}
		}
	}
	withNaN := relu.Clone()
	d := withNaN.Data()
	d[1*42+5], d[2*42+5] = float32(math.NaN()), 0 // channel 1 NaN beside a +0 centre in channel 2
	d[3*42+8], d[4*42+8] = float32(math.NaN()), negZero
	for _, tc := range []struct {
		name              string
		in                *tensor.Tensor
		alpha, beta, kval float64
	}{
		{"relu", relu, 1e-4, 0.75, 2},
		{"relu k=1", relu, 1e-4, 0.75, 1},
		{"relu k<1", relu, 1e-4, 0.75, 0.5},
		{"nan beside zero", withNaN, 1e-4, 0.75, 2},
		{"k=0 alpha=0", relu, 0, 0.75, 0},
		{"negative beta", relu, 1e-4, -0.75, 2},
		{"negative beta k=0 alpha=0", relu, 0, -0.75, 0},
		{"beta 0.5", relu, 1e-4, 0.5, 2},
		{"beta 0", relu, 1e-4, 0, 2},
		{"beta 2.25", relu, 1, 2.25, 2},
	} {
		got, err := LRN(tc.in, 5, tc.alpha, tc.beta, tc.kval)
		if err != nil {
			t.Fatal(err)
		}
		want := refLRN(tc.in, 5, tc.alpha, tc.beta, tc.kval)
		if d := tensor.FirstBitDiff(want, got); d >= 0 {
			t.Fatalf("LRN %s diverges from the indexed oracle at element %d: %08x vs %08x", tc.name, d,
				math.Float32bits(got.Data()[d]), math.Float32bits(want.Data()[d]))
		}
	}
	in := tensor.RandomUniform(9, 2, 2, 3, 13, 11)
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		for _, g := range [][3]int{{3, 2, 0}, {3, 2, 1}, {2, 2, 1}, {5, 3, 2}, {2, 1, 2}} {
			got, err := Pool2D(in, kind, g[0], g[1], g[2])
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.FirstBitDiff(refPool2D(in, kind, g[0], g[1], g[2]), got); d >= 0 {
				t.Fatalf("Pool2D kind=%d kernel=%d stride=%d pad=%d diverges from the indexed oracle at element %d", kind, g[0], g[1], g[2], d)
			}
		}
	}
}

// TestParallelLRNPoolBitIdentical runs LRN on AlexNet's [1,96,55,55], and
// max and average pooling on 98 such planes — chunks of 4 planes and a
// last chunk of 2 — at GOMAXPROCS 1 and 4: the outputs must match byte for
// byte, and at 4 every call must have been split.
func TestParallelLRNPoolBitIdentical(t *testing.T) {
	in := tensor.RandomUniform(1, 3, 1, 96, 55, 55)
	planes := tensor.RandomUniform(2, 3, 1, 98, 55, 55)
	ops := map[string]func() (*tensor.Tensor, error){
		"lrn":     func() (*tensor.Tensor, error) { return LRN(in, 5, 1e-4, 0.75, 2) },
		"maxpool": func() (*tensor.Tensor, error) { return Pool2D(planes, MaxPool, 3, 2, 0) },
		"avgpool": func() (*tensor.Tensor, error) { return Pool2D(planes, AvgPool, 3, 2, 1) },
	}
	for name, op := range ops {
		var outs [2]*tensor.Tensor
		var launches [2]int64
		for i, procs := range []int{1, 4} {
			prev := runtime.GOMAXPROCS(procs)
			before := tensor.HelperLaunches()
			out, err := op()
			launches[i] = tensor.HelperLaunches() - before
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = out
		}
		if i := tensor.FirstBitDiff(outs[0], outs[1]); i >= 0 {
			t.Errorf("%s: element %d differs between GOMAXPROCS 1 and 4", name, i)
		}
		if launches[0] != 0 || launches[1] == 0 {
			t.Errorf("%s: helpers started at GOMAXPROCS 1 / 4: %d / %d, want 0 / > 0", name, launches[0], launches[1])
		}
	}
}
