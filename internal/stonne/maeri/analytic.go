package maeri

import (
	"repro/internal/stonne/config"
	"repro/internal/stonne/fabric"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// This file implements the analytical engine: the closed-form evaluation of
// the step-loop cost model (the loop itself is the oracle package's).
//
// The key observation is that the per-step cost of the temporal loop nest is
// a pure function of the *effective* tile sizes of the step (and of whether
// the step belongs to the first reduction tile of its weight block). Along
// each loop axis the effective size takes at most two values — the full tile
// for interior steps and the remainder for the single boundary tile — so the
// whole nest decomposes into at most 2^axes size classes. Computing each
// class's cost once and multiplying by the class count reproduces the
// reference loop's Stats bit for bit (all accounting is integer) in
// O(boundary classes) instead of O(steps).

// axClass is one effective-size class along a loop axis: `count` tiles of
// `size` iterations each. Index 0 is always the interior class (the full
// tile — mapping validation guarantees tile ≤ dim, so the first tile of an
// axis is always interior); the optional index 1 is the boundary remainder.
type axClass struct {
	size  int
	count int64
}

// axClassSet is the decomposition of one axis: at most an interior class
// and a boundary remainder. A fixed-size value type keeps the analytic
// engine allocation-free (it runs once per job on the steady-state path).
type axClassSet struct {
	cls [2]axClass
	n   int
}

// all returns the populated classes.
func (s *axClassSet) all() []axClass { return s.cls[:s.n] }

// axClasses decomposes one axis of the loop nest into its size classes.
func axClasses(dim, tile int) axClassSet {
	s := axClassSet{cls: [2]axClass{{size: tile, count: int64(dim / tile)}}, n: 1}
	if rem := dim % tile; rem > 0 {
		s.cls[1] = axClass{size: rem, count: 1}
		s.n = 2
	}
	return s
}

// ceilDiv is the cycle cost of moving n elements over a bandwidth-bw link,
// mirroring DistributionNetwork.Deliver / ReductionNetwork.Drain.
func ceilDiv(n, bw int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + bw - 1) / bw
}

// treeDepth returns the drain pipeline depth for the configured reduction
// network, matching the Depth of the fabric the reference loop builds.
func (e *Engine) treeDepth(vnSize int) int64 {
	kind := fabric.ART
	if e.cfg.ReduceNetwork == config.FENetwork {
		kind = fabric.FEN
	}
	rn := fabric.ReductionNetwork{Kind: kind}
	return int64(rn.Depth(vnSize))
}

// analyticConv computes the Stats of a Conv2D in closed form, bit-identical
// to the step loop.
func (e *Engine) analyticConv(d tensor.ConvDims, m mapping.ConvMapping) stats.Stats {
	p, q := d.P(), d.Q()
	cg, kg := d.C/d.G, d.K/d.G
	dnBW, rnBW := int64(e.cfg.DNBandwidth), int64(e.cfg.RNBandwidth)
	present := e.cfg.AccumBuffer

	gCls := axClasses(d.G, m.TG)
	nCls := axClasses(d.N, m.TN)
	kCls := axClasses(kg, m.TK)
	cCls := axClasses(cg, m.TC)
	rCls := axClasses(d.R, m.TR)
	sCls := axClasses(d.S, m.TS)
	xCls := axClasses(p, m.TX)
	yCls := axClasses(q, m.TY)

	var st stats.Stats
	st.Multipliers = e.cfg.MSSize
	var cycles, dnElems int64

	for _, gc := range gCls.all() {
		for _, nc := range nCls.all() {
			for _, kc := range kCls.all() {
				// Count of (g, n, k) weight blocks in this replication class.
				cgnk := gc.count * nc.count * kc.count
				for ci, cc := range cCls.all() {
					for ri, rc := range rCls.all() {
						for si, sc := range sCls.all() {
							redTiles := cgnk * cc.count * rc.count * sc.count
							vn := rc.size * sc.size * cc.size
							weights := int64(vn * kc.size * gc.size)
							cycles += redTiles * ceilDiv(weights, dnBW)
							dnElems += redTiles * weights
							st.WeightLoads += redTiles * weights

							// Exactly one reduction tile per (g, n, k) block
							// is the first (redIdx == 1): the all-interior
							// class along c, r and s.
							var firstTiles int64
							if ci == 0 && ri == 0 && si == 0 {
								firstTiles = cgnk
							}
							restTiles := redTiles - firstTiles

							for _, xc := range xCls.all() {
								for _, yc := range yCls.all() {
									stepsPer := xc.count * yc.count
									nv := int64(kc.size * gc.size * nc.size * xc.size * yc.size)
									rows := uniqueSpan(xc.size, rc.size, d.StrideH)
									cols := uniqueSpan(yc.size, sc.size, d.StrideW)
									inputs := int64(nc.size * gc.size * cc.size * rows * cols)
									var psums int64
									if vn > 1 {
										psums = int64(vn-1) * nv
									}
									macs := nv * int64(vn)

									for _, fr := range [2]struct {
										first bool
										tiles int64
									}{{true, firstTiles}, {false, restTiles}} {
										if fr.tiles == 0 {
											continue
										}
										steps := fr.tiles * stepsPer
										var recirc int64
										if !fr.first && !present {
											recirc = nv
										}
										inCycles := ceilDiv(inputs+recirc, dnBW)
										collect := nv
										if !fr.first && present {
											collect *= 2
										}
										step := max(inCycles, ceilDiv(collect, rnBW), 1)
										cycles += steps * step
										dnElems += steps * (inputs + recirc)
										st.InputLoads += steps * inputs
										st.SpatialPsums += steps * psums
										st.Steps += steps
										st.MACs += steps * macs
										st.AccumWrites += steps * nv
									}
								}
							}
						}
					}
				}
			}
		}
	}
	cycles += e.treeDepth(m.VNSize()) + 1
	st.Cycles = cycles
	st.DNElements = dnElems
	st.Outputs = int64(d.N) * int64(p) * int64(q) * int64(d.K)
	return st
}

// analyticDense computes the Stats of a Dense in closed form, bit-identical
// to the step loop.
func (e *Engine) analyticDense(batches, inN, outN int, m mapping.FCMapping) stats.Stats {
	dnBW, rnBW := int64(e.cfg.DNBandwidth), int64(e.cfg.RNBandwidth)
	present := e.cfg.AccumBuffer

	sCls := axClasses(outN, m.TS)
	nCls := axClasses(batches, m.TN)
	kCls := axClasses(inN, m.TK)

	var st stats.Stats
	st.Multipliers = e.cfg.MSSize
	var cycles, dnElems int64

	for _, sc := range sCls.all() {
		for _, nc := range nCls.all() {
			csn := sc.count * nc.count
			for ki, kc := range kCls.all() {
				kTiles := csn * kc.count
				// The first K tile of every (s, n) block is the interior
				// class (redIdx == 1): one firstRed tile per block.
				var firstTiles int64
				if ki == 0 {
					firstTiles = csn
				}
				restTiles := kTiles - firstTiles

				nv := int64(sc.size * nc.size)
				wElems := int64(sc.size * kc.size)
				iElems := int64(nc.size * kc.size)
				var psums int64
				if kc.size > 1 {
					psums = int64(kc.size-1) * nv
				}
				macs := nv * int64(kc.size)

				for _, fr := range [2]struct {
					first bool
					tiles int64
				}{{true, firstTiles}, {false, restTiles}} {
					if fr.tiles == 0 {
						continue
					}
					var recirc int64
					if !fr.first && !present {
						recirc = nv
					}
					inCycles := ceilDiv(wElems+iElems+recirc, dnBW)
					collect := nv
					if !fr.first && present {
						collect *= 2
					}
					step := max(inCycles, ceilDiv(collect, rnBW), 1)
					cycles += fr.tiles * step
					dnElems += fr.tiles * (wElems + iElems + recirc)
					st.WeightLoads += fr.tiles * wElems
					st.InputLoads += fr.tiles * iElems
					st.SpatialPsums += fr.tiles * psums
					st.Steps += fr.tiles
					st.MACs += fr.tiles * macs
					st.AccumWrites += fr.tiles * nv
				}
			}
		}
	}
	cycles += e.treeDepth(m.VNSize()) + 1
	st.Cycles = cycles
	st.DNElements = dnElems
	st.Outputs = int64(batches) * int64(outN)
	return st
}
