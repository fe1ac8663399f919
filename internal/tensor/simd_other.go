//go:build !amd64

package tensor

// Non-amd64 builds always take the pure-Go kernels, which are bit-identical
// to the assembly by contract (see simd_fallback.go).

var hasAVX = false

// SIMDLevel names the vector kernel tier this process runs; non-amd64
// builds are always on the scalar fallbacks.
func SIMDLevel() string { return "scalar" }

func axpyRows(pos []int32, a, b []float32, ldb int, c []float32) {
	axpyRowsGo(pos, a, b, ldb, c)
}
func dot8Carry(k int, a, b, c []float32)                 { dot8CarryGo(k, a, b, c) }
func panelDot8(nv, nblocks int, a, panel, dst []float32) { panelDot8Go(nv, nblocks, a, panel, dst) }
