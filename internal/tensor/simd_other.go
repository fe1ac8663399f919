//go:build !amd64 || noasm

package tensor

// Non-amd64 builds, and amd64 builds under the noasm tag (how CI runs the
// executable specification everywhere), always take the pure-Go kernels,
// which are bit-identical to the assembly by contract (see
// simd_fallback.go).

var hasAVX = false

// SIMDLevel names the vector kernel tier this process runs; these builds
// are always on the scalar fallbacks.
func SIMDLevel() string { return "scalar" }

func axpyRows(pos []int32, a, b []float32, ldb int, c []float32) {
	axpyRowsGo(pos, a, b, ldb, c)
}
func dot8Carry(k int, a, b, c []float32) { dot8CarryGo(k, a, b, c) }
func panelTiles4x8(nts []int32, a, panel, dst []float32, ldd int) {
	panelTiles4x8Go(nts, a, panel, dst, ldd)
}
