// AVX micro-kernels for the packed GEMM and the fused convolution fast
// path. Bitwise contract: every lane performs exactly the scalar sequence —
// one VMULPS and one VADDPS per multiply-accumulate, in ascending reduction
// order, with no FMA contraction — so each output element's float32 chain is
// identical to the pure-Go kernels' (round-to-nearest per operation, IEEE
// 754 single precision per lane). The Go fallbacks in simd_fallback.go are
// the executable specification; TestSIMDKernelsMatchFallback pins them to
// these implementations bit for bit.

//go:build amd64 && !noasm

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1: ECX bit 28 = AVX, bit 27 = OSXSAVE; then XGETBV(0) bits
// 2:1 confirm the OS preserves the XMM/YMM state across context switches.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET

// func dot8CarryAsm(k int, a, b, c *float32)
//
// The packed-GEMM inner kernel: c[0:8] is loaded into a register tile,
// carries the running K chain — c[j] ← ((c[j] + a[0]·b[0·8+j]) + a[1]·b[1·8+j]) …
// in ascending p — and is stored back. b is a packed 8-wide micro-panel
// (contiguous groups of 8 per K step).
TEXT ·dot8CarryAsm(SB), NOSPLIT, $0-32
	MOVQ    k+0(FP), CX
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), DI
	MOVQ    c+24(FP), DX
	VMOVUPS (DX), Y0
	TESTQ   CX, CX
	JZ      carrydone

carryloop:
	VBROADCASTSS (SI), Y1
	VMULPS       (DI), Y1, Y1
	VADDPS       Y1, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          carryloop

carrydone:
	VMOVUPS Y0, (DX)
	VZEROUPPER
	RET

// func panelTiles4x8Asm(ntiles int, nts *int32, a, panel, dst *float32, ldd int)
//
// The fused-convolution micro-kernel: a 4-position × 8-channel output block
// over the whole reduction axis of its elements. Y0–Y3 hold the four output
// rows across every reduction tile; Y4–Y7 hold the current tile's fresh
// accumulators. Per tile i the nts[i] taps stream by in ascending order —
// a is [tap][4] (one activation per position), panel [tap][8] (one weight
// per channel), so one panel load feeds 32 multiply-accumulates — and one
// VADDPS per row then adds the tile's sum onto the output: the reference
// step loop's fresh per-reduction-tile accumulator and its single
// `out += acc`, tiles in the order given. A tile's first tap is peeled as
// acc = +0 + a·w, the same value a zeroed accumulator would reach. The
// rows are stored (not accumulated) ldd floats apart.
TEXT ·panelTiles4x8Asm(SB), NOSPLIT, $0-48
	MOVQ   ntiles+0(FP), BX
	MOVQ   nts+8(FP), R9
	MOVQ   a+16(FP), SI
	MOVQ   panel+24(FP), DI
	MOVQ   dst+32(FP), DX
	MOVQ   ldd+40(FP), R10
	SHLQ   $2, R10
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y15, Y15, Y15
	TESTQ  BX, BX
	JZ     ptstore

pttile:
	MOVLQSX      (R9), CX
	ADDQ         $4, R9
	VMOVUPS      (DI), Y12
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VMULPS       Y12, Y8, Y8
	VMULPS       Y12, Y9, Y9
	VMULPS       Y12, Y10, Y10
	VMULPS       Y12, Y11, Y11
	VADDPS       Y8, Y15, Y4
	VADDPS       Y9, Y15, Y5
	VADDPS       Y10, Y15, Y6
	VADDPS       Y11, Y15, Y7
	ADDQ         $16, SI
	ADDQ         $32, DI
	DECQ         CX
	JLE          ptflush

pttap:
	VMOVUPS      (DI), Y12
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	VBROADCASTSS 8(SI), Y10
	VBROADCASTSS 12(SI), Y11
	VMULPS       Y12, Y8, Y8
	VMULPS       Y12, Y9, Y9
	VMULPS       Y12, Y10, Y10
	VMULPS       Y12, Y11, Y11
	VADDPS       Y8, Y4, Y4
	VADDPS       Y9, Y5, Y5
	VADDPS       Y10, Y6, Y6
	VADDPS       Y11, Y7, Y7
	ADDQ         $16, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          pttap

ptflush:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	DECQ   BX
	JNZ    pttile

ptstore:
	VMOVUPS Y0, (DX)
	ADDQ    R10, DX
	VMOVUPS Y1, (DX)
	ADDQ    R10, DX
	VMOVUPS Y2, (DX)
	ADDQ    R10, DX
	VMOVUPS Y3, (DX)
	VZEROUPPER
	RET

// func axpyRowsAsm(nz int, pos *int32, a, b *float32, ldb int, c *float32, n int)
//
// The sparse-stationary inner kernel: for each of the nz positions p =
// pos[t], in order, c[j] ← c[j] + a[p]·b[p·ldb+j] for j < n — one step of n
// independent K chains per position. Positions are taken two at a time so
// c is loaded and stored once per pair; each lane still adds the first
// product, then the second, exactly the scalar order. Eight lanes per
// iteration, then a scalar tail with the same multiply-then-add per lane.
TEXT ·axpyRowsAsm(SB), NOSPLIT, $0-56
	MOVQ nz+0(FP), R8
	MOVQ pos+8(FP), R9
	MOVQ a+16(FP), R10
	MOVQ b+24(FP), R11
	MOVQ ldb+32(FP), R12
	MOVQ c+40(FP), DI
	MOVQ n+48(FP), R13
	SHLQ $2, R12

arpair:
	CMPQ         R8, $2
	JLT          arsingle
	MOVLQSX      (R9), AX
	MOVLQSX      4(R9), BX
	VBROADCASTSS (R10)(AX*4), Y0
	VBROADCASTSS (R10)(BX*4), Y1
	IMULQ        R12, AX
	IMULQ        R12, BX
	ADDQ         R11, AX
	ADDQ         R11, BX
	MOVQ         DI, DX
	MOVQ         R13, CX

arpair8:
	CMPQ    CX, $8
	JLT     arpair1
	VMULPS  (AX), Y0, Y2
	VMULPS  (BX), Y1, Y3
	VMOVUPS (DX), Y4
	VADDPS  Y2, Y4, Y4
	VADDPS  Y3, Y4, Y4
	VMOVUPS Y4, (DX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     arpair8

arpair1:
	TESTQ  CX, CX
	JZ     arpairnext
	VMULSS (AX), X0, X2
	VMULSS (BX), X1, X3
	VMOVSS (DX), X4
	VADDSS X2, X4, X4
	VADDSS X3, X4, X4
	VMOVSS X4, (DX)
	ADDQ   $4, AX
	ADDQ   $4, BX
	ADDQ   $4, DX
	DECQ   CX
	JMP    arpair1

arpairnext:
	ADDQ $8, R9
	SUBQ $2, R8
	JMP  arpair

arsingle:
	TESTQ        R8, R8
	JZ           ardone
	MOVLQSX      (R9), AX
	VBROADCASTSS (R10)(AX*4), Y0
	IMULQ        R12, AX
	ADDQ         R11, AX
	MOVQ         DI, DX
	MOVQ         R13, CX

arsingle8:
	CMPQ    CX, $8
	JLT     arsingle1
	VMULPS  (AX), Y0, Y2
	VMOVUPS (DX), Y4
	VADDPS  Y2, Y4, Y4
	VMOVUPS Y4, (DX)
	ADDQ    $32, AX
	ADDQ    $32, DX
	SUBQ    $8, CX
	JMP     arsingle8

arsingle1:
	TESTQ  CX, CX
	JZ     ardone
	VMULSS (AX), X0, X2
	VMOVSS (DX), X4
	VADDSS X2, X4, X4
	VMOVSS X4, (DX)
	ADDQ   $4, AX
	ADDQ   $4, DX
	DECQ   CX
	JMP    arsingle1

ardone:
	VZEROUPPER
	RET
