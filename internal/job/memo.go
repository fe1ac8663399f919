package job

import (
	"crypto/sha256"

	"repro/internal/api"
	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// A mapping changes a MAERI run's cycles, never its output: each output
// element depends only on the operands and on the reduction tiling — T_C,
// T_R and T_S for a convolution, T_K for a dense layer (maeri/fused.go). A
// sweep runs one layer under many mappings, so a full-accuracy MAERI job
// whose operands both carry a free identity (tensor.Identity) keeps its
// output in the job's pack cache under the operands' identities, the
// geometry and the canonical reduction order, and every later mapping of
// the same class re-reads it with its own counters. The key is consulted
// only after every check a computing run makes, so a hit can never turn an
// invalid job into a result, and an operand without a free identity takes
// the computing path without paying for a hash.

// The output forms' pack-cache ops, versioned like every other form.
const (
	convOutOp  = "maeri/conv-out/v1"
	denseOutOp = "maeri/dense-out/v1"
)

// testHookOutputMiss runs between a memoised output's missed lookup and its
// computation; tests hold two runs there to make them race on one key.
var testHookOutputMiss = func() {}

// runMemoised is runEngines for a full-accuracy job: a memoised output when
// the job's key is free and cached, the engines' output otherwise — put
// into the cache when the key is free.
func runMemoised(cfg config.HWConfig, j Job, d tensor.ConvDims) (*tensor.Tensor, stats.Stats, error) {
	key, st, memo := outputKey(cfg, j, d)
	if memo {
		if out, ok := j.pack.Get(key); ok {
			return out.Clone(), st, nil
		}
		testHookOutputMiss()
	}
	out, st, err := compute(cfg, j, d)
	if memo && err == nil {
		j.pack.Put(key, out.Clone()) // the caller owns out and may release it
	}
	return out, st, err
}

// outputKey returns the pack-cache key of a full-accuracy MAERI job's
// output and the counters a run of its mapping reports. memo is false — and
// the job computes, reporting any error on the way — when the job has no
// pack cache, is not MAERI, has an operand without a free identity, or
// fails a check: the configuration and geometry (already done by run), the
// mapping, or the operand shapes. An identity names elements, not a shape,
// so the shape checks come before the key.
//
// The key's hash folds the two identities with the layout and the whole
// geometry; P holds the canonical reduction order the engine computes
// under (maeri.ConvReductionOrder, maeri.DenseReductionTile), so mappings
// that differ only in their other tiles share one entry.
func outputKey(cfg config.HWConfig, j Job, d tensor.ConvDims) (key tensor.PackKey, st stats.Stats, memo bool) {
	if j.pack == nil || cfg.Controller != config.MAERIDenseWorkload {
		return key, st, false
	}
	in, w := j.Input, j.Weights
	inID, ok := in.Identity()
	if !ok {
		return key, st, false
	}
	wID, ok := w.Identity()
	if !ok {
		return key, st, false
	}
	var ids [64]byte
	copy(ids[:32], inID[:])
	copy(ids[32:], wID[:])
	pair := sha256.Sum256(ids[:])
	var err error
	if j.Kind == Conv2D {
		nhwc := j.Layout == tensor.NHWC
		if api.CheckConvOperands(in, w, d, nhwc) != nil {
			return key, st, false
		}
		if st, err = counters(cfg, j, d, 0, 0, 0); err != nil {
			return key, st, false
		}
		layout := 0
		if nhwc {
			layout = 1
		}
		o := maeri.ConvReductionOrder(d, j.ConvMapping)
		h := tensor.CombineHash(pair, layout, d.N, d.C, d.H, d.W, d.K, d.R, d.S, d.G,
			d.StrideH, d.StrideW, d.PadH, d.PadW)
		return tensor.PackKey{Op: convOutOp, Hash: h, P: [6]int{o[0], o[1], o[2]}}, st, true
	}
	if in.Rank() != 2 || w.Rank() != 2 || w.Dim(1) != in.Dim(1) {
		return key, st, false
	}
	batches, inN, outN := in.Dim(0), in.Dim(1), w.Dim(0)
	if st, err = counters(cfg, j, d, batches, inN, outN); err != nil {
		return key, st, false
	}
	h := tensor.CombineHash(pair, batches, inN, outN)
	return tensor.PackKey{Op: denseOutOp, Hash: h, P: [6]int{maeri.DenseReductionTile(inN, j.FCMapping)}}, st, true
}

// counters returns a MAERI run's Stats from its geometry alone — the
// counters-only path a dry-run job takes and a memoised output is served
// with: d for a convolution, batches × inN → outN for a dense layer.
func counters(cfg config.HWConfig, j Job, d tensor.ConvDims, batches, inN, outN int) (stats.Stats, error) {
	eng, err := maeri.NewEngine(cfg)
	if err != nil {
		return stats.Stats{}, err
	}
	eng.DryRun = true
	if j.Kind == Conv2D {
		_, st, err := eng.Conv2D(nil, nil, d, j.ConvMapping)
		return st, err
	}
	return eng.DenseStats(batches, inN, outN, j.FCMapping)
}
