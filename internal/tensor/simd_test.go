package tensor

import (
	"math"
	"testing"
)

// TestSIMDKernelsMatchFallback pins the AVX micro-kernels to their pure-Go
// specification bit for bit, across lengths that exercise the unrolled and
// remainder paths. On machines without AVX the dispatch and the fallback are
// the same code and the test passes trivially.
func TestSIMDKernelsMatchFallback(t *testing.T) {
	if !hasAVX {
		t.Log("no AVX: dispatch equals fallback by construction")
	}
	for _, k := range []int{1, 2, 3, 7, 8, 9, 64, 255, 256} {
		a := RandomUniform(int64(k), 1, k).Data()
		b := RandomUniform(int64(k)+100, 1, k*8).Data()
		cWant := RandomUniform(7, 1, 8).Data()
		cGot := append([]float32(nil), cWant...)

		dot8CarryGo(k, a, b, cWant)
		dot8Carry(k, a, b, cGot)
		for j := range cWant {
			if math.Float32bits(cWant[j]) != math.Float32bits(cGot[j]) {
				t.Fatalf("dot8Carry k=%d lane %d: %v (%08x) vs fallback %v (%08x)",
					k, j, cGot[j], math.Float32bits(cGot[j]), cWant[j], math.Float32bits(cWant[j]))
			}
		}
	}
	// axpyRows: widths around the 8-lane step and the scalar tail, position
	// counts that leave the pairing a remainder, a strided B.
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 255, 256, 257} {
		for _, nz := range []int{0, 1, 2, 3, 8, 9} {
			const k = 12
			ldb := n + 3
			a := RandomUniform(int64(n), 1, k).Data()
			b := RandomUniform(int64(n)+50, 1, k*ldb).Data()
			pos := make([]int32, nz)
			for i := range pos {
				pos[i] = int32((i*5 + n) % k) // any order, repeats allowed
			}
			cWant := RandomUniform(11, 1, n).Data()
			cGot := append([]float32(nil), cWant...)

			axpyRowsGo(pos, a, b, ldb, cWant)
			axpyRows(pos, a, b, ldb, cGot)
			for j := range cWant {
				if math.Float32bits(cWant[j]) != math.Float32bits(cGot[j]) {
					t.Fatalf("axpyRows n=%d nz=%d lane %d: %v (%08x) vs fallback %v (%08x)",
						n, nz, j, cGot[j], math.Float32bits(cGot[j]), cWant[j], math.Float32bits(cWant[j]))
				}
			}
		}
	}
	// panelTiles4x8: single-tap tiles (the basic mapping), multi-tap tiles,
	// a mix with a short last tile, one tile spanning the whole axis; a
	// packed and a strided destination whose other floats must survive.
	for ti, nts := range [][]int32{{1}, {1, 1, 1, 1, 1}, {9, 9, 9}, {2, 3, 1, 7, 2}, {36}, {4, 4, 4, 3}} {
		taps := 0
		for _, nt := range nts {
			taps += int(nt)
		}
		for _, ldd := range []int{8, 8 + 5} {
			a := RandomUniform(int64(ti), 1, taps*4).Data()
			a[0], a[len(a)-1] = 0, float32(math.Copysign(0, -1)) // ±0 activations: zero-filled padding taps
			panel := RandomUniform(int64(ti)+20, 1, taps*8).Data()
			dWant := RandomUniform(9, 1, 4*ldd).Data()
			dGot := append([]float32(nil), dWant...)

			panelTiles4x8Go(nts, a, panel, dWant, ldd)
			panelTiles4x8(nts, a, panel, dGot, ldd)
			for j := range dWant {
				if math.Float32bits(dWant[j]) != math.Float32bits(dGot[j]) {
					t.Fatalf("panelTiles4x8 nts=%v ldd=%d element %d: %v vs fallback %v",
						nts, ldd, j, dGot[j], dWant[j])
				}
			}
		}
	}
	// An axis of single-tap tiles run as one tile over every tap (how the
	// fused conv lays out the basic mapping) must give the same bits, ±0
	// activations and −0 weights included.
	negZero := float32(math.Copysign(0, -1))
	for _, taps := range []int{1, 2, 3, 9, 121, 2304} {
		a := RandomUniform(int64(taps)+40, 1, taps*4).Data()
		panel := RandomUniform(int64(taps)+60, 1, taps*8).Data()
		for i := range a {
			switch i % 7 {
			case 0:
				a[i] = 0
			case 3:
				a[i] = negZero
			}
		}
		for i := 0; i < len(panel); i += 5 {
			panel[i] = negZero
		}
		ones := make([]int32, taps)
		for i := range ones {
			ones[i] = 1
		}
		dWant := make([]float32, 4*8)
		dGot := make([]float32, 4*8)
		panelTiles4x8Go(ones, a, panel, dWant, 8)
		panelTiles4x8([]int32{int32(taps)}, a, panel, dGot, 8)
		for j := range dWant {
			if w, g := math.Float32bits(dWant[j]), math.Float32bits(dGot[j]); w != g {
				t.Fatalf("panelTiles4x8 taps=%d element %d: one tile %08x vs single-tap tiles %08x", taps, j, g, w)
			}
		}
	}
}

// TestPackedGEMMWithoutAVX forces the pure-Go kernels and re-checks the
// packed route against the reference loop, so the fallback stays proven on
// machines where CI only ever runs the AVX path.
func TestPackedGEMMWithoutAVX(t *testing.T) {
	if !hasAVX {
		t.Skip("already running without AVX")
	}
	hasAVX = false
	defer func() { hasAVX = true }()

	a := RandomUniform(1, 1, 97, 130)
	b := RandomUniform(2, 1, 130, 61)
	want := refGEMM(a, b)
	got := GEMM(a, b)
	if i := FirstBitDiff(want, got); i >= 0 {
		t.Fatalf("fallback packed GEMM diverges at element %d", i)
	}
}
