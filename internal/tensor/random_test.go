package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestRandomUniformMatchesMathRand pins RandomUniform to the value stream
// of rand.New(rand.NewSource(seed)).Float32(), bit for bit: every seeded
// operand, and so every seeded result and golden, depends on it. Seed -3
// draws a value that Float32 rounds to 1 at index 839 279, so the last case
// crosses the resampling step.
func TestRandomUniformMatchesMathRand(t *testing.T) {
	cases := []struct {
		seed  int64
		scale float32
		shape []int
	}{
		{0, 1, []int{1}},
		{1, 1, []int{3, 5, 7}},
		{-1, 1, []int{257}},
		{42, 0.5, []int{4097}},
		{-7, 3.75, []int{2, 3, 11, 13}},
		{math.MaxInt64, 1, []int{1023}},
		{math.MinInt64, 2, []int{9}},
		{1 << 40, 1e-3, []int{64, 65}},
		{-3, 1, []int{839_281}},
	}
	for _, c := range cases {
		got := RandomUniform(c.seed, c.scale, c.shape...)
		if !ShapeEq(got.Shape(), c.shape) {
			t.Fatalf("seed %d: shape %v, want %v", c.seed, got.Shape(), c.shape)
		}
		rng := rand.New(rand.NewSource(c.seed))
		for i, v := range got.Data() {
			want := (rng.Float32()*2 - 1) * c.scale
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("seed %d scale %g: element %d = %g (%#08x), math/rand gives %g (%#08x)",
					c.seed, c.scale, i, v, math.Float32bits(v), want, math.Float32bits(want))
			}
		}
	}
}

// TestPruneAllocFree pins Prune's selection to the stack: pruning a SIGMA
// conv row's 64×64×3×3 kernel to half allocates nothing.
func TestPruneAllocFree(t *testing.T) {
	src := RandomUniform(7, 1, 64, 64, 3, 3)
	x := src.Clone()
	if allocs := testing.AllocsPerRun(20, func() {
		copy(x.data, src.data)
		Prune(x, 0.5)
	}); allocs != 0 {
		t.Errorf("Prune allocates %v times per call, want 0", allocs)
	}
}

// maxFuzzPrune bounds FuzzPruneMatchesSort's tensors, in elements.
const maxFuzzPrune = 1 << 13

// FuzzPruneMatchesSort checks Prune against the sort-based oracle bit for
// bit on arbitrary float32 bit patterns — NaN payloads, ±0, denormals, ±Inf
// and ties — at fractions folded into (0, 1). The corpus starts from
// TestPruneMatchesSortOracle's three inputs.
func FuzzPruneMatchesSort(f *testing.F) {
	encode := func(x *Tensor) []byte {
		b := make([]byte, 0, 4*len(x.data))
		for _, v := range x.data {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	ties := RandomUniform(4, 1, 1000)
	for i, v := range ties.data {
		ties.data[i] = float32(math.Round(float64(v)*3)) / 3
	}
	ties.data[5] = float32(math.Copysign(0, -1))
	nonFinite := RandomUniform(5, 1, 64)
	nonFinite.data[3], nonFinite.data[9] = float32(math.NaN()), float32(math.NaN())
	nonFinite.data[20], nonFinite.data[21] = float32(math.Inf(1)), float32(math.Inf(-1))
	nonFinite.data[40] = math.Float32frombits(1)
	for _, x := range []*Tensor{RandomNormal(3, 0.05, 37, 41), ties, nonFinite} {
		for _, frac := range []float64{0.02, 0.5, 0.999} {
			f.Add(encode(x), frac)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, frac float64) {
		n := min(len(raw)/4, maxFuzzPrune)
		frac = math.Abs(math.Mod(frac, 1))
		if n == 0 || !(frac > 0) {
			return
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		want, got := FromData(data, n), FromData(append([]float32(nil), data...), n)
		refPrune(want, frac)
		Prune(got, frac)
		for i := range want.data {
			if math.Float32bits(want.data[i]) != math.Float32bits(got.data[i]) {
				t.Fatalf("fraction %v, element %d: %#08x, sort-based pruning gives %#08x",
					frac, i, math.Float32bits(got.data[i]), math.Float32bits(want.data[i]))
			}
		}
	})
}

// BenchmarkPrune prunes a SIGMA conv row's 64×64×3×3 kernel to half, on a
// fresh clone each time as the server's generator does.
func BenchmarkPrune(b *testing.B) {
	src := RandomUniform(7, 1, 64, 64, 3, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Prune(src.Clone(), 0.5)
	}
}
