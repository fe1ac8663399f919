package tensor

import (
	"fmt"
	"math/rand"
	"strings"
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

// kernelMatrixLoop is the element-by-element flattening KernelMatrix used
// to copy: the reference its view must equal.
func kernelMatrixLoop(kernel *Tensor, d ConvDims, g int) *Tensor {
	kg := d.K / d.G
	cg := d.C / d.G
	out := New(kg, cg*d.R*d.S)
	for k := 0; k < kg; k++ {
		for c := 0; c < cg; c++ {
			for r := 0; r < d.R; r++ {
				for s := 0; s < d.S; s++ {
					out.Set(kernel.At(g*kg+k, c, r, s), k, (c*d.R+r)*d.S+s)
				}
			}
		}
	}
	return out
}

// TestKernelMatrixIsView: on random grouped geometries the kernel matrix
// equals the old copying loop bit for bit, shares the kernel's storage, and
// a kernel of the wrong shape panics.
func TestKernelMatrixIsView(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 60; trial++ {
		g := 1 + trial%3
		d := ConvDims{N: 1, C: g * (1 + rng.Intn(4)), H: 6, W: 6, K: g * (1 + rng.Intn(4)),
			R: 1 + rng.Intn(3), S: 1 + rng.Intn(3), G: g}
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		kernel := RandomUniform(int64(trial), 1, d.K, d.C/d.G, d.R, d.S)
		for grp := 0; grp < d.G; grp++ {
			got, want := KernelMatrix(kernel, d, grp), kernelMatrixLoop(kernel, d, grp)
			if !ShapeEq(got.Shape(), want.Shape()) {
				t.Fatalf("%+v group %d: shape %v, want %v", d, grp, got.Shape(), want.Shape())
			}
			if i := FirstBitDiff(got, want); i >= 0 {
				t.Fatalf("%+v group %d: view differs from the loop at element %d", d, grp, i)
			}
			if &got.Data()[0] != &kernel.Data()[grp*got.Size()] {
				t.Fatalf("%+v group %d: kernel matrix does not share the kernel's storage", d, grp)
			}
			if cap(got.Data()) != got.Size() {
				t.Fatalf("%+v group %d: view capacity %d reaches past its group (%d)", d, grp, cap(got.Data()), got.Size())
			}
		}
	}

	d := ConvDims{N: 1, C: 4, H: 6, W: 6, K: 4, R: 3, S: 3, G: 2}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][]int{{4, 4, 3, 3}, {4, 2, 3}, {2, 2, 3, 3}, {4, 2, 3, 1}} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "does not match KCRS") {
					t.Errorf("kernel shape %v: recovered %v, want a KCRS shape panic", shape, r)
				}
			}()
			KernelMatrix(New(shape...), d, 0)
		}()
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
