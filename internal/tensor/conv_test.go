package tensor

import (
	"fmt"
	"testing"
)

func testConvDims() []ConvDims {
	return []ConvDims{
		{N: 1, C: 3, H: 8, W: 8, K: 4, R: 3, S: 3, PadH: 1, PadW: 1},
		{N: 2, C: 4, H: 7, W: 9, K: 6, R: 3, S: 3, StrideH: 2, StrideW: 2},
		{N: 1, C: 8, H: 10, W: 10, K: 8, R: 3, S: 3, G: 2, PadH: 1, PadW: 1},
		{N: 2, C: 6, H: 5, W: 5, K: 6, R: 5, S: 5, G: 3, PadH: 2, PadW: 2},
		{N: 1, C: 2, H: 9, W: 9, K: 3, R: 1, S: 1, StrideH: 2, StrideW: 2},
		{N: 1, C: 3, H: 12, W: 12, K: 2, R: 3, S: 3, DilationH: 2, DilationW: 2},
	}
}

// TestIm2ColBlockMatchesIm2Col checks the block producer against the
// materialised matrix, column range by column range.
func TestIm2ColBlockMatchesIm2Col(t *testing.T) {
	for _, d := range testConvDims() {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := RandomUniform(11, 1, d.N, d.C, d.H, d.W)
		cg := d.C / d.G
		rows := cg * d.R * d.S
		cols := d.N * d.P() * d.Q()
		for g := 0; g < d.G; g++ {
			want := Im2Col(in, d, g)
			for _, width := range []int{1, 3, cols} {
				dst := make([]float32, rows*width)
				for col0 := 0; col0 < cols; col0 += width {
					w := min(width, cols-col0)
					Im2ColBlock(in, d, g, col0, w, dst)
					for r := 0; r < rows; r++ {
						for j := 0; j < w; j++ {
							if dst[r*w+j] != want.At(r, col0+j) {
								t.Fatalf("dims=%+v g=%d block[%d+%d] row %d col %d: got %v want %v",
									d, g, col0, j, r, col0+j, dst[r*w+j], want.At(r, col0+j))
							}
						}
					}
				}
			}
		}
	}
}

// TestConvGEMMImplicitMatchesMaterialised proves the fused lowering bitwise
// identical to the materialised GEMM-over-Im2Col composition, serial and
// parallel.
func TestConvGEMMImplicitMatchesMaterialised(t *testing.T) {
	for _, d := range testConvDims() {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		in := RandomUniform(3, 1, d.N, d.C, d.H, d.W)
		kernel := RandomUniform(4, 1, d.K, d.C/d.G, d.R, d.S)
		p, q := d.P(), d.Q()
		kg := d.K / d.G

		// Materialised reference.
		want := New(d.N, d.K, p, q)
		for g := 0; g < d.G; g++ {
			km := KernelMatrix(kernel, d, g)
			prod := GEMM(km, Im2Col(in, d, g))
			for k := 0; k < kg; k++ {
				for n := 0; n < d.N; n++ {
					for y := 0; y < p; y++ {
						for x := 0; x < q; x++ {
							want.Set(prod.At(k, (n*p+y)*q+x), n, g*kg+k, y, x)
						}
					}
				}
			}
		}

		for _, workers := range []int{1, 4} {
			got := ConvGEMMImplicit(in, kernel, d, workers)
			if !ShapeEq(got.Shape(), want.Shape()) {
				t.Fatalf("dims=%+v workers=%d: shape %v, want %v", d, workers, got.Shape(), want.Shape())
			}
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("dims=%+v workers=%d: element %d = %v, want %v (not bitwise identical)",
						d, workers, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

// TestGEMMBlockedValidatesShapes locks in the satellite fix: GEMMBlocked
// must reject mismatched operands just like GEMM instead of silently
// reading out of shape.
func TestGEMMBlockedValidatesShapes(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := New(4, 5)
	b := New(6, 3) // inner dimension mismatch
	expectPanic("inner mismatch", func() { GEMMBlocked(a, b, 0) })
	expectPanic("rank", func() { GEMMBlocked(New(4), b, 0) })
}

func BenchmarkGEMMVariants(b *testing.B) {
	a := RandomUniform(1, 1, 256, 256)
	bb := RandomUniform(2, 1, 256, 256)
	for _, bench := range []struct {
		name string
		f    func() *Tensor
	}{
		{"GEMM", func() *Tensor { return GEMM(a, bb) }},
		{"GEMMBlocked", func() *Tensor { return GEMMBlocked(a, bb, 64) }},
	} {
		b.Run(fmt.Sprintf("%s/256", bench.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bench.f()
			}
		})
	}
}
