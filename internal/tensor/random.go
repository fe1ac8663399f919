package tensor

import (
	"math"
	"math/rand"
)

// RandomUniform fills a new tensor of the given shape with values uniformly
// distributed in [-scale, scale), using a deterministic seed. The values are
// those of rand.New(rand.NewSource(seed)).Float32(), bit for bit, drawn
// straight from the source: with the Rand's two method layers gone, the
// compiler sees the source's type and calls it directly.
func RandomUniform(seed int64, scale float32, shape ...int) *Tensor {
	src := rand.NewSource(seed)
	t := New(shape...)
	data := t.data
	for i := range data {
		// Float32's steps: Float64 redraws a quotient that rounds to 1,
		// then Float32 redraws a float32 that rounds to 1.
		var f float32
		for {
			f64 := float64(src.Int63()) / (1 << 63)
			if f64 == 1 {
				continue
			}
			if f = float32(f64); f != 1 {
				break
			}
		}
		data[i] = (f*2 - 1) * scale
	}
	return t
}

// RandomNormal fills a new tensor with N(0, stddev²) values, deterministic
// per seed. This is the default weight initialisation for the model zoo.
func RandomNormal(seed int64, stddev float32, shape ...int) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()) * stddev
	}
	return t
}

// Prune zeroes the smallest-magnitude elements of t in place until the given
// fraction (in [0,1]) of elements is zero. This is the magnitude pruning
// used to realise SIGMA's sparsity_ratio configuration: the paper evaluates
// SIGMA "with different levels of pruning" (§VIII-A).
func Prune(t *Tensor, fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction >= 1 {
		t.Fill(0)
		return
	}
	data := t.data
	target := int(math.Round(fraction * float64(len(data))))
	if target <= 0 {
		return
	}
	threshold, ok := magnitudeAtRank(data, target-1)
	if !ok {
		return
	}
	// First pass: zero strictly-below-threshold elements. Both keys are at
	// most 0x7fffffff, so the difference's sign says which is smaller: a
	// mask store rather than a branch that, pruning half of a uniform
	// tensor, is a coin flip.
	zeroed := 0
	for i, v := range data {
		below := uint32((int32(magnitudeKey(v)) - int32(threshold)) >> 31)
		data[i] = math.Float32frombits(math.Float32bits(v) &^ below)
		zeroed += int(below & 1)
	}
	// Second pass: break ties at the threshold deterministically, in index
	// order, until the target count is reached.
	for i, v := range data {
		if zeroed >= target {
			break
		}
		if v != 0 && magnitudeKey(v) == threshold {
			data[i] = 0
			zeroed++
		}
	}
}

// magnitudeKey maps v to an integer that orders like |v|: the IEEE-754 bit
// pattern without its sign. Keys above nanKey are NaNs.
func magnitudeKey(v float32) uint32 { return math.Float32bits(v) & 0x7fffffff }

const nanKey = 0x7f800000 // the key of ±Inf, the largest magnitude

// magnitudeAtRank returns the key of the rank-th smallest magnitude in data
// (rank 0 is the smallest), with NaNs ordered before every number as
// sort.Float64s orders them; ok is false when that element is a NaN. It is
// a three-level counting selection over the key's 31 bits: a count of the
// high 11 bits finds the bucket holding the rank, a count of the next 10
// bits inside that bucket narrows it, and a count of the low 10 bits finds
// the key. It reads data three times into one 16 KiB array on the stack,
// so it allocates and copies nothing, where sorting a float64 copy of
// AlexNet's 61 M weights took seconds.
func magnitudeAtRank(data []float32, rank int) (key uint32, ok bool) {
	var count [1 << 11]int
	nans := 0
	for _, v := range data {
		if k := magnitudeKey(v); k > nanKey {
			nans++
		} else {
			count[k>>20]++
		}
	}
	if rank < nans {
		return 0, false
	}
	high, rank := bucketAtRank(count[:], rank-nans)
	clear(count[:1<<10])
	for _, v := range data {
		if k := magnitudeKey(v); k <= nanKey && k>>20 == high {
			count[k>>10&0x3ff]++
		}
	}
	mid, rank := bucketAtRank(count[:1<<10], rank)
	prefix := high<<10 | mid
	clear(count[:1<<10])
	for _, v := range data {
		if k := magnitudeKey(v); k <= nanKey && k>>10 == prefix {
			count[k&0x3ff]++
		}
	}
	low, _ := bucketAtRank(count[:1<<10], rank)
	return prefix<<10 | low, true
}

// bucketAtRank returns the bucket of count holding the rank-th counted
// element, and that element's rank inside the bucket.
func bucketAtRank(count []int, rank int) (bucket uint32, rest int) {
	for ; rank >= count[bucket]; bucket++ {
		rank -= count[bucket]
	}
	return bucket, rank
}
