package tensor

import (
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
