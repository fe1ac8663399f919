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

// panelDot8Go is the fused-convolution inner kernel: per 8-wide block, a
// fresh accumulator sums the taps in ascending order and is added onto dst
// once — the reference's per-reduction-tile chain.
func panelDot8Go(nv, nblocks int, a, panel, dst []float32) {
	a = a[:nv:nv]
	for kb := 0; kb < nblocks; kb++ {
		var a0, a1, a2, a3, a4, a5, a6, a7 float32
		base := kb * nv * 8
		for t, iv := range a {
			kr := panel[base+t*8 : base+t*8+8 : base+t*8+8]
			a0 += iv * kr[0]
			a1 += iv * kr[1]
			a2 += iv * kr[2]
			a3 += iv * kr[3]
			a4 += iv * kr[4]
			a5 += iv * kr[5]
			a6 += iv * kr[6]
			a7 += iv * kr[7]
		}
		d := dst[kb*8 : kb*8+8 : kb*8+8]
		d[0] += a0
		d[1] += a1
		d[2] += a2
		d[3] += a3
		d[4] += a4
		d[5] += a5
		d[6] += a6
		d[7] += a7
	}
}
