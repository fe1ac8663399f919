//go:build amd64 && !noasm

package tensor

// hasAVX gates the AVX micro-kernels in simd_amd64.s. The assembly is
// AVX-1 only (VBROADCASTSS / VMULPS / VADDPS), detected once at init; when
// absent the pure-Go fallbacks run instead, producing bit-identical results.
var hasAVX = cpuHasAVX()

// cpuHasAVX reports AVX support including OS YMM-state save (CPUID +
// XGETBV). Implemented in simd_amd64.s.
func cpuHasAVX() bool

// SIMDLevel names the vector kernel tier this process runs: "AVX" when the
// assembly micro-kernels are active, "scalar" when the bit-identical
// pure-Go fallbacks run instead. Services log it at startup so performance
// reports can be matched to the kernel tier that produced them.
func SIMDLevel() string {
	if hasAVX {
		return "AVX"
	}
	return "scalar"
}

// dot8CarryAsm is the AVX packed-GEMM inner kernel; see simd_amd64.s.
func dot8CarryAsm(k int, a, b, c *float32)

// panelTiles4x8Asm is the AVX fused-convolution micro-kernel; see
// simd_amd64.s. It retains none of its pointers, which lets fusedConv keep
// its edge tile on the stack.
//
//go:noescape
func panelTiles4x8Asm(ntiles int, nts *int32, a, panel, dst *float32, ldd int)

// axpyRowsAsm is the AVX sparse-stationary inner kernel; see simd_amd64.s.
// It retains none of its pointers, which lets gemmSparse keep the position
// buffer on its stack.
//
//go:noescape
func axpyRowsAsm(nz int, pos *int32, a, b *float32, ldb int, c *float32, n int)

// axpyRows accumulates c[j] += a[p]·b[p·ldb+j] (j < len(c)) for every
// position p of pos, in order: one multiply and one add per lane and
// position, never fused. Every p must index a, and b must hold the
// len(c)-wide row of every position.
func axpyRows(pos []int32, a, b []float32, ldb int, c []float32) {
	if hasAVX && len(pos) > 0 && len(c) > 0 {
		_ = b[(len(a)-1)*ldb+len(c)-1]
		axpyRowsAsm(len(pos), &pos[0], &a[0], &b[0], ldb, &c[0], len(c))
		return
	}
	axpyRowsGo(pos, a, b, ldb, c)
}

// dot8Carry accumulates c[j] += Σ_p a[p]·b[p·8+j] (j < 8, ascending p, one
// running chain seeded by the incoming c) over a packed 8-wide B panel.
func dot8Carry(k int, a, b, c []float32) {
	if hasAVX && k > 0 {
		dot8CarryAsm(k, &a[0], &b[0], &c[0])
		return
	}
	dot8CarryGo(k, a, b, c)
}

// panelTiles4x8 runs the fused-conv micro-kernel: a 4×8 output block held
// in registers across every reduction tile, fresh accumulators per tile,
// ascending-tap sums, one add onto the block per tile.
func panelTiles4x8(nts []int32, a, panel, dst []float32, ldd int) {
	if hasAVX && len(nts) > 0 {
		_, _ = panel[2*len(a)-1], dst[3*ldd+7]
		panelTiles4x8Asm(len(nts), &nts[0], &a[0], &panel[0], &dst[0], ldd)
		return
	}
	panelTiles4x8Go(nts, a, panel, dst, ldd)
}
