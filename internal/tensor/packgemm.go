package tensor

import "sync"

// This file implements the packed, register-blocked GEMM micro-kernel that
// backs GEMM, GEMMBlocked and the panel multiply inside
// ConvGEMMImplicit. It follows the BLIS/caffe2 packed-panel decomposition,
// specialised to a 1×packNR micro-tile: the streaming operand B is repacked
// into contiguous packNR-wide micro-panels sized to L1, and the innermost
// loop streams one A row against one B micro-panel into eight accumulators —
// the AVX kernel in simd_amd64.s where available, the bit-identical pure-Go
// loop in simd_fallback.go otherwise. (Wider scalar micro-tiles — 2×8,
// 4×4 — spill on amd64's sixteen XMM registers and measure slower; with a
// single A row per tile the A operand is consumed in natural row-major
// order and needs no packing.)
//
// Bitwise equality with the scalar skip-zero ikj loop (the tests' refGEMM)
// is a design invariant, not an accident:
//
//   - every output element accumulates its products in ascending-K order, in
//     a single running chain: K panels are visited in ascending order and
//     the micro-kernel loads C, accumulates the panel's products in order
//     and stores C back, so K blocking never regroups the summation;
//   - edge micro-panels are zero-padded — the padded lanes feed accumulators
//     that are never stored, so real outputs are untouched;
//   - the reference loop's skip of zero A elements is a bitwise no-op for
//     finite operands (the skipped products are ±0, and an IEEE-754
//     round-to-nearest accumulator that starts from the running C value can
//     never be −0, so adding them back changes nothing), which the
//     equivalence tests in packgemm_test.go pin down.
//
// Go's compiler never fuses float32 multiply-add into an FMA, so the
// per-operation rounding — and therefore the result — is identical across
// all the kernels.

// Blocking parameters. packNR is the micro-panel width (eight accumulators —
// the most gc keeps in registers alongside the A value and loop state);
// packKC sizes the K panel so one B micro-panel (packKC × packNR × 4 B =
// 8 KiB) plus the A row (1 KiB) sit in L1 while C stays in registers; packNC
// bounds the packed B block (packKC × packNC × 4 B = 1 MiB) to L2 so it
// survives the sweep over A rows.
const (
	packNR = 8
	packKC = 256
	packNC = 1024
)

// packPool recycles the B packing scratch so steady-state GEMM traffic
// allocates nothing.
var packPool = sync.Pool{New: func() any {
	buf := make([]float32, packKC*packNC)
	return &buf
}}

// packB packs rows [p0, p0+kc) × cols [j0, j0+nc) of the k×n matrix b
// (row stride ldb) into micro-panels of packNR columns: panel jb holds
// dst[jb*kc + p*packNR + c] = b[(p0+p)*ldb + j0+jb+c]. Columns past the
// matrix edge pack as zeros.
func packB(b []float32, ldb, p0, kc, j0, nc int, dst []float32) {
	for jb := 0; jb < nc; jb += packNR {
		cols := min(packNR, nc-jb)
		panel := dst[jb*kc:]
		if cols == packNR {
			for p := 0; p < kc; p++ {
				src := b[(p0+p)*ldb+j0+jb:]
				q := panel[p*packNR : p*packNR+packNR : p*packNR+packNR]
				q[0], q[1], q[2], q[3] = src[0], src[1], src[2], src[3]
				q[4], q[5], q[6], q[7] = src[4], src[5], src[6], src[7]
			}
			continue
		}
		for p := 0; p < kc; p++ {
			src := b[(p0+p)*ldb+j0+jb:]
			q := panel[p*packNR : p*packNR+packNR : p*packNR+packNR]
			for c := 0; c < cols; c++ {
				q[c] = src[c]
			}
			for c := cols; c < packNR; c++ {
				q[c] = 0
			}
		}
	}
}

// gemmPackedRange accumulates c[i0:i1) += a[i0:i1) × b for row-major,
// contiguous operands (a: m×k, b: k×n, c: m×n), processing only the row band
// [i0, i1). kc <= 0 selects the tuned packKC. Per-element summation order is
// ascending K in one running chain, identical to gemmSparse's.
func gemmPackedRange(a, b, c []float32, k, n, i0, i1, kc int) {
	if kc <= 0 {
		kc = packKC
	}
	if kc > k {
		// Clamp before sizing the scratch: a caller-supplied block larger
		// than K (the "huge block disables blocking" idiom) must not inflate
		// the packing buffer beyond the problem's own extent.
		kc = k
	}
	bufp := packPool.Get().(*[]float32)
	defer packPool.Put(bufp)
	if need := kc * ((min(packNC, n) + packNR - 1) / packNR * packNR); cap(*bufp) < need {
		*bufp = make([]float32, need)
	}

	for jc := 0; jc < n; jc += packNC {
		nc := min(packNC, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			bBuf := (*bufp)[: (nc+packNR-1)/packNR*packNR*kcEff : (nc+packNR-1)/packNR*packNR*kcEff]
			packB(b, n, pc, kcEff, jc, nc, bBuf)
			gemmMicroSweep(a, bBuf, c, k, n, i0, i1, jc, pc, nc, kcEff)
		}
	}
}

// gemmMicroSweep streams A rows [i0, i1) against one packed B block bBuf
// covering output columns [jc, jc+nc) and K rows [pc, pc+kcEff), through the
// eight-accumulator micro-kernel. The per-element summation order is the
// packed route's usual ascending-K running chain.
func gemmMicroSweep(a, bBuf, c []float32, k, n, i0, i1, jc, pc, nc, kcEff int) {
	for jr := 0; jr < nc; jr += packNR {
		nr := min(packNR, nc-jr)
		bPanel := bBuf[jr*kcEff:]
		if nr == packNR {
			for i := i0; i < i1; i++ {
				dot8Carry(kcEff, a[i*k+pc:], bPanel, c[i*n+jc+jr:])
			}
			continue
		}
		for i := i0; i < i1; i++ {
			crow := c[i*n+jc+jr : i*n+jc+jr+nr : i*n+jc+jr+nr]
			var t [packNR]float32
			copy(t[:], crow)
			dot8Carry(kcEff, a[i*k+pc:], bPanel, t[:])
			copy(crow, t[:nr])
		}
	}
}

// packedBLen returns the element count of the fully packed form of a k×n B
// matrix under K-panel size kc: the concatenation, in (jc outer, pc inner)
// order, of every packB block with its column extent rounded up to packNR.
func packedBLen(k, n, kc int) int {
	total := 0
	for jc := 0; jc < n; jc += packNC {
		nc := min(packNC, n-jc)
		rounded := (nc + packNR - 1) / packNR * packNR
		for pc := 0; pc < k; pc += kc {
			total += rounded * min(kc, k-pc)
		}
	}
	return total
}

// packFullB packs the whole B into dst (len >= packedBLen(k, n, kc)) in the
// exact block order gemmPackedCached consumes. The packed bytes are a pure
// function of (B contents, k, n, kc) and the packNR/packNC constants, which
// is what lets the PackCache share them across calls and goroutines.
func packFullB(b []float32, k, n, kc int, dst []float32) {
	off := 0
	for jc := 0; jc < n; jc += packNC {
		nc := min(packNC, n-jc)
		rounded := (nc + packNR - 1) / packNR * packNR
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			packB(b, n, pc, kcEff, jc, nc, dst[off:off+rounded*kcEff])
			off += rounded * kcEff
		}
	}
}

// gemmPackedCached accumulates c[i0:i1) += a[i0:i1) × b like
// gemmPackedRange, but reads B's packed panels from the content-keyed cache
// instead of repacking them: the first caller for a given (B, k, n) packs
// the whole matrix once; every later call — typically another sweep job
// over the same weights — skips packing entirely. The arithmetic (and so
// the result bytes) is identical to gemmPackedRange's.
func gemmPackedCached(a []float32, b *Tensor, c []float32, k, n, i0, i1 int, cache *PackCache) {
	kc := min(packKC, k)
	key := PackKey{Op: "gemm/packB/v1", Hash: b.ContentHash(), P: [6]int{k, n, kc, packNR, packNC}}
	packed := cache.GetOrBuild(key, func() *Tensor {
		t := New(packedBLen(k, n, kc))
		packFullB(b.Data(), k, n, kc, t.Data())
		return t
	})
	pk := packed.Data()
	off := 0
	for jc := 0; jc < n; jc += packNC {
		nc := min(packNC, n-jc)
		rounded := (nc + packNR - 1) / packNR * packNR
		for pc := 0; pc < k; pc += kc {
			kcEff := min(kc, k-pc)
			gemmMicroSweep(a, pk[off:off+rounded*kcEff], c, k, n, i0, i1, jc, pc, nc, kcEff)
			off += rounded * kcEff
		}
	}
}

// PanelTiles4x8 is the fused-convolution micro-kernel of the MAERI
// full-accuracy fast path: it computes a 4-position × 8-channel output
// block over the whole reduction axis, holding the block in registers
// across every reduction tile. a is [tap][4] and panel [tap][8], both in
// reduction order; nts[i] ≥ 1 is the tap count of tile i and Σnts must
// equal len(a)/4 (the kernel trusts it, as axpyRows trusts its positions).
// Per output element each tile sums its taps in ascending order into a
// fresh accumulator, which is added onto the output once — exactly a
// simulated step loop's per-reduction-tile accumulator and its single
// `out += acc`, tiles in the order given. Row j is stored (not
// accumulated) at dst[j·ldd:][:8]. Runs the AVX kernel where available;
// per-lane arithmetic is bit-identical to the pure-Go fallback either way.
func PanelTiles4x8(nts []int32, a, panel, dst []float32, ldd int) {
	panelTiles4x8(nts, a, panel, dst, ldd)
}

// gemmPackedAccum accumulates c += a × b over the whole m×n output through
// the packed micro-kernel. c must hold m×n values (typically freshly zeroed,
// making it a plain product).
func gemmPackedAccum(a, b, c []float32, m, k, n int) {
	gemmPackedRange(a, b, c, k, n, 0, m, 0)
}

// packedWorthIt reports whether the packing overhead of the micro-kernel
// pays for itself: tiny or extremely skinny problems stay on the reference
// loop, whose per-element cost has no packing preamble.
func packedWorthIt(m, k, n int) bool {
	if n < packNR || k < 8 || m < 1 {
		return false
	}
	return int64(m)*int64(k)*int64(n) >= 32*1024
}

// sparseWorthSkipping reports whether a has enough zeros that the
// sparse-stationary kernel (gemmSparse: work proportional to the nonzero
// count, but one c load and store per nonzero pair) beats the dense
// micro-kernel. The scan is O(m·k) against O(m·k·n) multiply work, so it
// costs well under 1% of a routed GEMM. The SIGMA lowering feeds
// magnitude-pruned stationary operands through here. Measured against the
// AVX kernels on the AlexNet im2col shapes, the crossover density is 0.8–0.9
// for panels 169–256 columns wide, 0.55 at 64 columns and 0.45 at 36; the
// one constant, skipping from 40% zeros up, sits where the wide panels win
// clearly and the narrow ones break even.
func sparseWorthSkipping(a []float32) bool {
	return (len(a)-CountNonzero(a))*5 >= len(a)*2
}
