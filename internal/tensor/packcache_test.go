package tensor

import (
	"testing"
)

// TestPackCacheBounds pins the LRU eviction behaviour: the entry and byte
// bounds are absolute, the coldest entries leave first, and the stats
// account for every movement.
func TestPackCacheBounds(t *testing.T) {
	mk := func(n int, fill float32) *Tensor {
		tt := New(n)
		for i := range tt.Data() {
			tt.Data()[i] = fill
		}
		return tt
	}
	key := func(i int) PackKey { return PackKey{Op: "test/v1", P: [6]int{i}} }

	t.Run("entries", func(t *testing.T) {
		c := NewPackCache(2, 0)
		c.Put(key(0), mk(4, 1))
		c.Put(key(1), mk(4, 2))
		if _, ok := c.Get(key(0)); !ok { // refresh 0: 1 becomes coldest
			t.Fatal("entry 0 missing before eviction")
		}
		c.Put(key(2), mk(4, 3))
		if _, ok := c.Get(key(1)); ok {
			t.Fatal("coldest entry 1 survived an over-bound Put")
		}
		for _, i := range []int{0, 2} {
			if _, ok := c.Get(key(i)); !ok {
				t.Fatalf("entry %d evicted out of LRU order", i)
			}
		}
		st := c.Stats()
		if st.Entries != 2 || st.Evictions != 1 || st.Puts != 3 {
			t.Fatalf("stats after eviction: %+v", st)
		}
	})

	t.Run("bytes", func(t *testing.T) {
		// Each entry is 4·n + 64 bookkeeping bytes; budget two of them.
		per := int64(4*100 + 64)
		c := NewPackCache(0, 2*per)
		c.Put(key(0), mk(100, 1))
		c.Put(key(1), mk(100, 2))
		if st := c.Stats(); st.Entries != 2 || st.Bytes != 2*per {
			t.Fatalf("stats before eviction: %+v", st)
		}
		c.Put(key(2), mk(100, 3))
		st := c.Stats()
		if st.Entries != 2 || st.Bytes != 2*per || st.Evictions != 1 {
			t.Fatalf("stats after byte-bound eviction: %+v", st)
		}
		if _, ok := c.Get(key(0)); ok {
			t.Fatal("coldest entry survived the byte bound")
		}
		// An entry larger than the whole budget can never be resident.
		c.Put(key(3), mk(1000, 4))
		if _, ok := c.Get(key(3)); ok {
			t.Fatal("entry larger than the byte budget stayed resident")
		}
	})

	t.Run("unbounded-and-nil", func(t *testing.T) {
		c := NewPackCache(0, 0)
		for i := 0; i < 100; i++ {
			c.Put(key(i), mk(8, float32(i)))
		}
		if st := c.Stats(); st.Entries != 100 || st.Evictions != 0 {
			t.Fatalf("unbounded cache evicted: %+v", st)
		}
		var nilCache *PackCache
		if _, ok := nilCache.Get(key(0)); ok {
			t.Fatal("nil cache returned a hit")
		}
		nilCache.Put(key(0), mk(8, 1)) // must not panic
		if got := nilCache.GetOrBuild(key(0), func() *Tensor { return mk(8, 7) }); got.Data()[0] != 7 {
			t.Fatal("nil cache GetOrBuild did not build")
		}
		if st := nilCache.Stats(); st != (PackStats{}) {
			t.Fatalf("nil cache stats: %+v", st)
		}
	})
}

// TestPackCacheCollisionsByConstruction builds keys engineered to collide
// and keys engineered not to: two separately materialised tensors with
// equal contents must share one entry (that sharing is the whole point and
// is only safe because equal content hash + equal params ⇒ equal derived
// bytes), while a single-bit content difference, a parameter difference or
// an op difference must each select a different entry.
func TestPackCacheCollisionsByConstruction(t *testing.T) {
	c := NewPackCache(0, 0)
	a := RandomUniform(42, 1, 8, 16)
	b := RandomUniform(42, 1, 8, 16) // identical content, distinct object
	if a.ContentHash() != b.ContentHash() {
		t.Fatal("equal-content tensors hash differently")
	}

	built := 0
	build := func(src *Tensor) func() *Tensor {
		return func() *Tensor { built++; return src.Clone() }
	}
	keyOf := func(src *Tensor, op string, p0 int) PackKey {
		return PackKey{Op: op, Hash: src.ContentHash(), P: [6]int{p0}}
	}

	first := c.GetOrBuild(keyOf(a, "op/v1", 1), build(a))
	second := c.GetOrBuild(keyOf(b, "op/v1", 1), build(b))
	if built != 1 {
		t.Fatalf("engineered collision did not share the entry: built %d times", built)
	}
	if first != second {
		t.Fatal("colliding keys returned different tensors")
	}
	if FirstBitDiff(first, a) != -1 {
		t.Fatal("shared entry's bytes differ from the source content")
	}

	// One flipped mantissa bit must separate the keys.
	mut := a.Clone()
	mut.Data()[5] += 1e-7
	c.GetOrBuild(keyOf(mut, "op/v1", 1), build(mut))
	if built != 2 {
		t.Fatal("a content difference did not separate the cache keys")
	}
	// Same content, different derivation parameters or op: distinct entries.
	c.GetOrBuild(keyOf(a, "op/v1", 2), build(a))
	c.GetOrBuild(keyOf(a, "op/v2", 1), build(a))
	if built != 4 {
		t.Fatalf("parameter/op differences did not separate keys: built %d times", built)
	}
	if st := c.Stats(); st.Entries != 4 {
		t.Fatalf("expected 4 distinct entries, got %+v", st)
	}
}

// TestCombineHash pins the composite-key helper: folding integers must be
// order- and value-sensitive, stable, and must keep distinct inputs apart
// past the internal chaining threshold.
func TestCombineHash(t *testing.T) {
	var h [32]byte
	h[0] = 1
	a := CombineHash(h, 1, 2, 3)
	if a != CombineHash(h, 1, 2, 3) {
		t.Fatal("CombineHash is not deterministic")
	}
	if a == CombineHash(h, 3, 2, 1) {
		t.Fatal("CombineHash ignores ordering")
	}
	if a == CombineHash(h, 1, 2) {
		t.Fatal("CombineHash ignores arity")
	}
	long := make([]int, 60) // forces the overflow chaining path
	long[59] = 7
	l1 := CombineHash(h, long...)
	long[59] = 8
	if l1 == CombineHash(h, long...) {
		t.Fatal("CombineHash chaining lost a trailing value")
	}
}

// TestGEMMCachedBitwiseEqual proves the cached packed-B route byte-equal to
// the uncached GEMM on dense, sparse and sub-threshold shapes, cold and
// warm, and that the warm pass actually reuses the pack.
func TestGEMMCachedBitwiseEqual(t *testing.T) {
	cases := []struct {
		name    string
		m, k, n int
		sparse  float64
	}{
		{"dense-packed", 48, 96, 64, 0},
		{"odd-edges", 33, 70, 61, 0},
		{"sparse-stationary", 48, 96, 64, 0.8}, // skip-zero route, cache bypassed
		{"tiny", 3, 4, 5, 0},                   // below packedWorthIt
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := RandomUniform(7, 1, tc.m, tc.k)
			b := RandomUniform(8, 1, tc.k, tc.n)
			if tc.sparse > 0 {
				Prune(a, tc.sparse)
			}
			want := GEMM(a, b)
			c := NewPackCache(0, 0)
			cold := GEMMCached(a, b, c)
			warm := GEMMCached(a, b, c)
			if i := FirstBitDiff(want, cold); i != -1 {
				t.Fatalf("cold cached GEMM differs at element %d", i)
			}
			if i := FirstBitDiff(want, warm); i != -1 {
				t.Fatalf("warm cached GEMM differs at element %d", i)
			}
			if tc.sparse == 0 && tc.m*tc.k*tc.n >= 32*1024 {
				if st := c.Stats(); st.Hits == 0 {
					t.Fatalf("warm pass never hit the pack cache: %+v", st)
				}
			}
		})
	}
}

// TestConvGEMMImplicitCachedBitwiseEqual proves the cache-taking form of
// the implicit GEMM lowering byte-identical to the plain one, warm and
// cold, serial and parallel. Its kernel rows are read in place, so it
// leaves the pack cache empty.
func TestConvGEMMImplicitCachedBitwiseEqual(t *testing.T) {
	d := ConvDims{N: 2, C: 6, H: 9, W: 9, K: 16, R: 3, S: 3, PadH: 1, PadW: 1, G: 2}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	kernel := RandomUniform(2, 1, d.K, d.C/d.G, d.R, d.S)
	want := ConvGEMMImplicit(in, kernel, d, 1)
	c := NewPackCache(0, 0)
	for pass := 0; pass < 2; pass++ {
		for _, workers := range []int{1, 3} {
			got := ConvGEMMImplicitCached(in, kernel, d, workers, c)
			if i := FirstBitDiff(want, got); i != -1 {
				t.Fatalf("pass %d workers %d: cached lowering differs at element %d", pass, workers, i)
			}
		}
	}
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("kernel rows are read in place, yet the cache took %d forms: %+v", st.Puts, st)
	}
}
