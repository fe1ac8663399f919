package tensor

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewZeroInitialised(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size() = %d, want 24", x.Size())
	}
	for i, v := range x.Data() {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 5)
	x.Set(42, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 42 {
		t.Fatalf("At(1,2,3) = %v, want 42", got)
	}
	// Row-major offset must be ((1*3)+2)*5+3 = 28.
	if x.Data()[28] != 42 {
		t.Fatalf("flat offset wrong: data[28] = %v", x.Data()[28])
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-bounds access")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromDataLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data length")
		}
	}()
	FromData([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(7, 2, 3)
	if x.At(1, 5) != 7 {
		t.Fatal("reshape must alias storage")
	}
}

func TestReshapeBadCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 3).Reshape(5)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(4)
	x.Set(1, 0)
	y := x.Clone()
	y.Set(9, 0)
	if x.At(0) != 1 {
		t.Fatal("clone must not alias storage")
	}
}

func TestTransposeIdentity(t *testing.T) {
	x := RandomUniform(1, 1, 3, 4, 5)
	y := x.Transpose(0, 1, 2)
	if MaxAbsDiff(x, y) != 0 {
		t.Fatal("identity permutation must preserve contents")
	}
}

func TestTranspose2D(t *testing.T) {
	x := New(2, 3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			x.Set(float32(i*10+j), i, j)
		}
	}
	y := x.Transpose(1, 0)
	if !ShapeEq(y.Shape(), []int{3, 2}) {
		t.Fatalf("shape = %v, want [3 2]", y.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if y.At(j, i) != x.At(i, j) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		x := RandomUniform(seed, 1, shape...)
		perm := rng.Perm(4)
		inv := make([]int, 4)
		for i, p := range perm {
			inv[p] = i
		}
		y := x.Transpose(perm...).Transpose(inv...)
		return MaxAbsDiff(x, y) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutConversionsRoundTrip(t *testing.T) {
	x := RandomUniform(7, 1, 2, 3, 5, 4)
	if MaxAbsDiff(x, NHWCToNCHW(NCHWToNHWC(x))) != 0 {
		t.Fatal("NCHW→NHWC→NCHW must round-trip")
	}
	k := RandomUniform(8, 1, 6, 3, 2, 2) // KCRS
	if MaxAbsDiff(k, RSCKToKCRS(KCRSToRSCK(k))) != 0 {
		t.Fatal("KCRS→RSCK→KCRS must round-trip")
	}
	if MaxAbsDiff(x, NPQKToNKPQ(NKPQToNPQK(x))) != 0 {
		t.Fatal("NKPQ→NPQK→NKPQ must round-trip")
	}
}

func TestKernelForPairs(t *testing.T) {
	if l, err := KernelFor(NCHW); err != nil || l != KCRS {
		t.Fatalf("KernelFor(NCHW) = %v, %v", l, err)
	}
	if l, err := KernelFor(NHWC); err != nil || l != RSCK {
		t.Fatalf("KernelFor(NHWC) = %v, %v", l, err)
	}
	if _, err := KernelFor(KCRS); err == nil {
		t.Fatal("KernelFor(KCRS) should error")
	}
}

func TestPad2D(t *testing.T) {
	x := New(1, 1, 2, 2)
	x.Set(1, 0, 0, 0, 0)
	x.Set(2, 0, 0, 0, 1)
	x.Set(3, 0, 0, 1, 0)
	x.Set(4, 0, 0, 1, 1)
	y := Pad2D(x, 1, 2)
	if !ShapeEq(y.Shape(), []int{1, 1, 4, 6}) {
		t.Fatalf("shape = %v", y.Shape())
	}
	if y.At(0, 0, 1, 2) != 1 || y.At(0, 0, 2, 3) != 4 {
		t.Fatal("padded contents misplaced")
	}
	// Border must be zero.
	if y.At(0, 0, 0, 0) != 0 || y.At(0, 0, 3, 5) != 0 {
		t.Fatal("padding must be zero")
	}
}

func TestPad2DZeroIsCopy(t *testing.T) {
	x := RandomUniform(3, 1, 1, 2, 3, 3)
	y := Pad2D(x, 0, 0)
	if MaxAbsDiff(x, y) != 0 {
		t.Fatal("zero padding must preserve contents")
	}
	y.Set(99, 0, 0, 0, 0)
	if x.At(0, 0, 0, 0) == 99 {
		t.Fatal("zero padding must not alias input")
	}
}

func TestPad2DNHWCMatchesNCHW(t *testing.T) {
	x := RandomUniform(4, 1, 2, 3, 5, 4) // NCHW
	a := NCHWToNHWC(Pad2D(x, 2, 1))
	b := Pad2DNHWC(NCHWToNHWC(x), 2, 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("NHWC padding must match NCHW padding after conversion")
	}
}

func TestGEMMSmall(t *testing.T) {
	a := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromData([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := GEMM(a, b)
	want := []float32{58, 64, 139, 154}
	for i, v := range c.Data() {
		if v != want[i] {
			t.Fatalf("GEMM[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestGEMMIdentity(t *testing.T) {
	n := 5
	id := New(n, n)
	for i := 0; i < n; i++ {
		id.Set(1, i, i)
	}
	a := RandomUniform(11, 1, n, n)
	if MaxAbsDiff(GEMM(a, id), a) != 0 {
		t.Fatal("A × I must equal A")
	}
	if MaxAbsDiff(GEMM(id, a), a) != 0 {
		t.Fatal("I × A must equal A")
	}
}

func TestGEMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GEMM(New(2, 3), New(4, 2))
}

func TestGEMMBlockedMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		a := RandomUniform(seed, 1, m, k)
		b := RandomUniform(seed+1, 1, k, n)
		return AllClose(GEMM(a, b), GEMMBlocked(a, b, 8), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvDimsResolve(t *testing.T) {
	d := ConvDims{N: 1, C: 3, H: 227, W: 227, K: 96, R: 11, S: 11, StrideH: 4, StrideW: 4}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	if d.P() != 55 || d.Q() != 55 {
		t.Fatalf("AlexNet conv1 output = %dx%d, want 55x55", d.P(), d.Q())
	}
	if got := d.MACs(); got != int64(96*55*55*11*11*3) {
		t.Fatalf("MACs = %d", got)
	}
}

func TestConvDimsErrors(t *testing.T) {
	cases := []ConvDims{
		{N: 0, C: 1, H: 4, W: 4, K: 1, R: 3, S: 3},
		{N: 1, C: 3, H: 4, W: 4, K: 4, R: 3, S: 3, G: 2}, // G does not divide C
		{N: 1, C: 1, H: 2, W: 2, K: 1, R: 5, S: 5},       // empty output
	}
	for i, d := range cases {
		if err := d.Resolve(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestIm2ColGEMMEqualsDirectConv(t *testing.T) {
	// Property: GEMM over im2col must match the direct convolution sum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := ConvDims{
			N: 1 + rng.Intn(2), C: 1 + rng.Intn(4), H: 5 + rng.Intn(6), W: 5 + rng.Intn(6),
			K: 1 + rng.Intn(4), R: 1 + rng.Intn(3), S: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
		}
		if err := d.Resolve(); err != nil {
			return true // skip invalid geometry
		}
		in := RandomUniform(seed, 1, d.N, d.C, d.H, d.W)
		ker := RandomUniform(seed+1, 1, d.K, d.C, d.R, d.S)
		cols := Im2Col(in, d, 0)
		km := KernelMatrix(ker, d, 0)
		out := GEMM(km, cols) // K × (N·P·Q)
		// Direct computation.
		for n := 0; n < d.N; n++ {
			for k := 0; k < d.K; k++ {
				for y := 0; y < d.P(); y++ {
					for x := 0; x < d.Q(); x++ {
						var acc float64
						for c := 0; c < d.C; c++ {
							for r := 0; r < d.R; r++ {
								for s := 0; s < d.S; s++ {
									iy := y*d.StrideH - d.PadH + r
									ix := x*d.StrideW - d.PadW + s
									if iy < 0 || iy >= d.H || ix < 0 || ix >= d.W {
										continue
									}
									acc += float64(in.At(n, c, iy, ix)) * float64(ker.At(k, c, r, s))
								}
							}
						}
						got := float64(out.At(k, (n*d.P()+y)*d.Q()+x))
						if math.Abs(got-acc) > 1e-3 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColGrouped(t *testing.T) {
	d := ConvDims{N: 1, C: 4, H: 6, W: 6, K: 4, R: 3, S: 3, G: 2}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := RandomUniform(5, 1, 1, 4, 6, 6)
	// Group 1's im2col must only read channels 2..3.
	zeroFirst := in.Clone()
	for c := 0; c < 2; c++ {
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				zeroFirst.Set(0, 0, c, y, x)
			}
		}
	}
	a := Im2Col(in, d, 1)
	b := Im2Col(zeroFirst, d, 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("group 1 im2col must not depend on group 0 channels")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := RandomNormal(42, 1, 10, 10)
	b := RandomNormal(42, 1, 10, 10)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("same seed must give same tensor")
	}
	c := RandomNormal(43, 1, 10, 10)
	if MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestPruneReachesTargetSparsity(t *testing.T) {
	for _, frac := range []float64{0, 0.25, 0.5, 0.9, 1} {
		x := RandomNormal(1, 1, 64, 64)
		Prune(x, frac)
		got := x.Sparsity()
		if math.Abs(got-frac) > 0.01 {
			t.Fatalf("Prune(%.2f): sparsity = %.3f", frac, got)
		}
	}
}

func TestPruneKeepsLargest(t *testing.T) {
	x := FromData([]float32{0.1, -5, 0.2, 4, -0.3, 3}, 6)
	Prune(x, 0.5)
	if x.At(1) != -5 || x.At(3) != 4 || x.At(5) != 3 {
		t.Fatalf("large magnitudes must survive: %v", x.Data())
	}
	if x.At(0) != 0 || x.At(2) != 0 || x.At(4) != 0 {
		t.Fatalf("small magnitudes must be zeroed: %v", x.Data())
	}
}

// refPrune is Prune as it was before the counting selection: the threshold
// comes from fully sorting a float64 copy of the magnitudes. It is the
// oracle for the zero pattern, ties included.
func refPrune(t *Tensor, fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction >= 1 {
		t.Fill(0)
		return
	}
	n := len(t.data)
	target := int(math.Round(fraction * float64(n)))
	if target <= 0 {
		return
	}
	mags := make([]float64, n)
	for i, v := range t.data {
		mags[i] = math.Abs(float64(v))
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	threshold := sorted[target-1]
	zeroed := 0
	for i := range t.data {
		if mags[i] < threshold {
			t.data[i] = 0
			zeroed++
		}
	}
	for i := range t.data {
		if zeroed >= target {
			break
		}
		if t.data[i] != 0 && mags[i] == threshold {
			t.data[i] = 0
			zeroed++
		}
	}
}

// TestPruneMatchesSortOracle checks the selection-based Prune against the
// sort-based one bit for bit: continuous values, a tensor of few distinct
// magnitudes (so the threshold is a many-way tie broken in index order),
// existing ±0, infinities and NaNs, at fractions that put the threshold
// inside and between the tie groups.
func TestPruneMatchesSortOracle(t *testing.T) {
	inputs := map[string]func() *Tensor{
		"normal": func() *Tensor { return RandomNormal(3, 0.05, 37, 41) },
		"ties": func() *Tensor {
			x := RandomUniform(4, 1, 1000)
			for i, v := range x.data {
				x.data[i] = float32(math.Round(float64(v)*3)) / 3 // magnitudes 0, ⅓, ⅔, 1
			}
			x.data[5] = float32(math.Copysign(0, -1))
			return x
		},
		"non-finite": func() *Tensor {
			x := RandomUniform(5, 1, 64)
			x.data[3], x.data[9] = float32(math.NaN()), float32(math.NaN())
			x.data[20], x.data[21] = float32(math.Inf(1)), float32(math.Inf(-1))
			x.data[40] = math.Float32frombits(1) // smallest denormal
			return x
		},
	}
	for name, mk := range inputs {
		for _, frac := range []float64{0.001, 0.02, 0.1, 0.25, 0.4, 0.5, 0.62, 0.75, 0.9, 0.999} {
			want, got := mk(), mk()
			refPrune(want, frac)
			Prune(got, frac)
			for i := range want.data {
				if math.Float32bits(want.data[i]) != math.Float32bits(got.data[i]) {
					t.Fatalf("%s, fraction %v: element %d is %v, sort-based pruning gives %v", name, frac, i, got.data[i], want.data[i])
				}
			}
		}
	}
}

func TestSparsityAndNNZ(t *testing.T) {
	x := FromData([]float32{0, 1, 0, 2}, 4)
	if x.NNZ() != 2 {
		t.Fatalf("NNZ = %d", x.NNZ())
	}
	if x.Sparsity() != 0.5 {
		t.Fatalf("Sparsity = %v", x.Sparsity())
	}
}

func TestAllClose(t *testing.T) {
	a := FromData([]float32{1, 2}, 2)
	b := FromData([]float32{1.0001, 2.0001}, 2)
	if !AllClose(a, b, 1e-3) {
		t.Fatal("expected close")
	}
	if AllClose(a, b, 1e-6) {
		t.Fatal("expected not close at tight tolerance")
	}
	if AllClose(a, FromData([]float32{1}, 1), 1) {
		t.Fatal("shape mismatch must not be close")
	}
}

func TestStringer(t *testing.T) {
	if s := New(1, 3, 224, 224).String(); s != "Tensor[1 3 224 224]" {
		t.Fatalf("String() = %q", s)
	}
}
