package tensor

// Pure-Go counterparts of the AVX micro-kernels in simd_amd64.s. They are
// the executable specification of the kernels' bitwise contract — per
// output lane, one multiply and one add per reduction step, in ascending
// reduction order — and run wherever the assembly does not (non-amd64
// builds, or amd64 without AVX). TestSIMDKernelsMatchFallback pins the two
// implementations together bit for bit.

// axpyRowsGo is the sparse-stationary inner kernel: for each position p of
// pos, in order, c[j] += a[p]·b[p·ldb+j] — one product and one add per lane
// and position, a single step of each lane's K chain.
func axpyRowsGo(pos []int32, a, b []float32, ldb int, c []float32) {
	for _, p := range pos {
		av := a[p]
		row := b[int(p)*ldb:][:len(c)]
		for j := range c {
			c[j] += av * row[j]
		}
	}
}

// dot8CarryGo is the packed-GEMM inner kernel: c[0:8] carries one running
// K chain per lane, ascending p, over a packed 8-wide B panel.
func dot8CarryGo(k int, a, b, c []float32) {
	c = c[:8:8]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	c4, c5, c6, c7 := c[4], c[5], c[6], c[7]
	a = a[:k]
	p := 0
	for ; p+1 < k; p += 2 {
		av := a[p]
		bp := b[8*p : 8*p+16 : 8*p+16]
		c0 += av * bp[0]
		c1 += av * bp[1]
		c2 += av * bp[2]
		c3 += av * bp[3]
		c4 += av * bp[4]
		c5 += av * bp[5]
		c6 += av * bp[6]
		c7 += av * bp[7]
		aw := a[p+1]
		c0 += aw * bp[8]
		c1 += aw * bp[9]
		c2 += aw * bp[10]
		c3 += aw * bp[11]
		c4 += aw * bp[12]
		c5 += aw * bp[13]
		c6 += aw * bp[14]
		c7 += aw * bp[15]
	}
	if p < k {
		av := a[p]
		bp := b[8*p : 8*p+8 : 8*p+8]
		c0 += av * bp[0]
		c1 += av * bp[1]
		c2 += av * bp[2]
		c3 += av * bp[3]
		c4 += av * bp[4]
		c5 += av * bp[5]
		c6 += av * bp[6]
		c7 += av * bp[7]
	}
	c[0], c[1], c[2], c[3] = c0, c1, c2, c3
	c[4], c[5], c[6], c[7] = c4, c5, c6, c7
}

// panelTiles4x8Go is the fused-convolution micro-kernel: a 4-position ×
// 8-channel output block over the whole reduction axis. a is [tap][4] (one
// activation per position) and panel [tap][8] (one weight per channel),
// both in reduction order; nts[i] is the tap count of reduction tile i, so
// len(a) is 4·Σnts. Per output element, every tile sums its taps in
// ascending order into a fresh accumulator that is then added onto the
// output once — the reference step loop's per-tile chain, tiles in the
// order given. Row j of the block is stored (not accumulated) at
// dst[j·ldd:][:8].
func panelTiles4x8Go(nts []int32, a, panel, dst []float32, ldd int) {
	for j := 0; j < 4; j++ {
		var o0, o1, o2, o3, o4, o5, o6, o7 float32
		t := 0
		for _, nt := range nts {
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for end := t + int(nt); t < end; t++ {
				iv := a[t*4+j]
				kr := panel[t*8 : t*8+8 : t*8+8]
				a0 += iv * kr[0]
				a1 += iv * kr[1]
				a2 += iv * kr[2]
				a3 += iv * kr[3]
				a4 += iv * kr[4]
				a5 += iv * kr[5]
				a6 += iv * kr[6]
				a7 += iv * kr[7]
			}
			o0 += a0
			o1 += a1
			o2 += a2
			o3 += a3
			o4 += a4
			o5 += a5
			o6 += a6
			o7 += a7
		}
		d := dst[j*ldd : j*ldd+8 : j*ldd+8]
		d[0], d[1], d[2], d[3] = o0, o1, o2, o3
		d[4], d[5], d[6], d[7] = o4, o5, o6, o7
	}
}
