// Package sigma simulates the SIGMA architecture (Qin et al., HPCA 2020) as
// implemented in STONNE: a sparse GEMM accelerator whose Flex-DPE
// multipliers hold bitmap-compressed nonzero stationary elements while the
// streaming matrix is broadcast through a flexible distribution network and
// reduced by a FAN tree able to reduce arbitrary-size groups.
//
// SIGMA has no user-visible mapping: "the memory controller automatically
// tiles the matrix depending on the level of sparsity" (§V-A). The memory
// controller model here packs the stationary matrix's nonzeros into rounds
// of ms_size elements — denser matrices need more rounds, so cycles scale
// with the nonzero count, which is exactly the Figure 9 effect.
package sigma

import (
	"fmt"

	"repro/internal/stonne/config"
	"repro/internal/stonne/fabric"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// Engine simulates one SIGMA instance. An Engine keeps no state between
// calls, so once its fields are set it may serve concurrent calls.
//
// Counters and arithmetic are decoupled: Stats come from the GEMMStats
// row-summary replay and the output from the fast GEMM kernel, both
// bit-identical to the oracle package's chunk-by-chunk simulation (which adds
// every stationary nonzero's product directly onto its output element in
// ascending-K order, exactly the chain tensor.GEMM computes).
type Engine struct {
	cfg config.HWConfig

	// Pack, when set, lets the engine reuse content-keyed derived forms
	// across engines: packed operand panels, input transposes and the
	// stationary operand's row summary. Counters and outputs are bitwise
	// identical with or without it.
	Pack *tensor.PackCache
}

// NewEngine validates the hardware configuration and returns an engine.
func NewEngine(cfg config.HWConfig) (*Engine, error) {
	if cfg.Controller != config.SIGMASparseGEMM {
		return nil, fmt.Errorf("sigma: controller_type must be SIGMA_SPARSE_GEMM, got %s", cfg.Controller)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// Bitmap is the compressed representation of a stationary matrix: one bit
// per element plus the packed nonzero values, the ECC-style format SIGMA's
// memory controller builds before filling the Flex-DPEs.
type Bitmap struct {
	Rows, Cols int
	Bits       []uint64
	Values     []float32
}

// CompressBitmap builds the bitmap encoding of a 2-D tensor.
func CompressBitmap(t *tensor.Tensor) (*Bitmap, error) {
	if t.Rank() != 2 {
		return nil, fmt.Errorf("sigma: bitmap compression requires a 2-D tensor, got %v", t.Shape())
	}
	rows, cols := t.Dim(0), t.Dim(1)
	b := &Bitmap{Rows: rows, Cols: cols, Bits: make([]uint64, (rows*cols+63)/64)}
	for i, v := range t.Data() {
		if v != 0 {
			b.Bits[i/64] |= 1 << (i % 64)
			b.Values = append(b.Values, v)
		}
	}
	return b, nil
}

// NNZ returns the number of nonzero elements.
func (b *Bitmap) NNZ() int { return len(b.Values) }

// Decompress reconstructs the dense tensor.
func (b *Bitmap) Decompress() *tensor.Tensor {
	t := tensor.New(b.Rows, b.Cols)
	vi := 0
	for i := range t.Data() {
		if b.Bits[i/64]&(1<<(i%64)) != 0 {
			t.Data()[i] = b.Values[vi]
			vi++
		}
	}
	return t
}

// GEMM computes out = stationary × streaming for stationary [S, K] and
// streaming [K, M], skipping multiplications by stationary zeros (sparse
// inference, feature iv of Table I). It returns the [S, M] product and the
// simulation statistics.
func (e *Engine) GEMM(stationary, streaming *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	if stationary.Rank() != 2 || streaming.Rank() != 2 {
		return nil, stats.Stats{}, fmt.Errorf("sigma: GEMM requires 2-D operands, got %v × %v", stationary.Shape(), streaming.Shape())
	}
	m := streaming.Dim(1)
	if stationary.Dim(1) != streaming.Dim(0) {
		return nil, stats.Stats{}, fmt.Errorf("sigma: GEMM inner dimensions differ: %v × %v", stationary.Shape(), streaming.Shape())
	}
	// The chunk loop accumulates each output element directly, one add per
	// stationary nonzero in ascending K (chunk boundaries never regroup the
	// chain), so tensor.GEMM — for which the zero elements the chunk loop
	// never materialises are skipped or a bitwise no-op — reproduces its
	// output bytes exactly.
	st, err := e.GEMMStats(stationary, m)
	if err != nil {
		return nil, st, err
	}
	return tensor.GEMMCached(stationary, streaming, e.Pack), st, nil
}

// rowSummary returns the structure of the stationary operand that
// GEMMStats replays: per row, the nonzero count and the first and last
// nonzero columns (−1 for an empty row), three ints per row. It is all the
// memory controller's chunking depends on and is independent of the
// hardware configuration and of the streaming operand, so with a pack cache
// it is built once per stationary content and shared by every config, batch
// size and engine that multiplies the same weights.
func (e *Engine) rowSummary(stationary *tensor.Tensor) []int32 {
	if e.Pack == nil {
		return scanRows(stationary)
	}
	key := tensor.PackKey{Op: "sigma/rowsummary/v1", Hash: stationary.ContentHash(),
		P: [6]int{stationary.Dim(0), stationary.Dim(1)}}
	return e.Pack.GetOrBuildInts(key, func() []int32 { return scanRows(stationary) })
}

// scanRows builds the row summary in one pass over the operand: a
// branch-free count per row, and two column searches that stop at the
// first hit, O(1/density) per row.
func scanRows(t *tensor.Tensor) []int32 {
	s, k := t.Dim(0), t.Dim(1)
	sum := make([]int32, 3*s)
	d := t.Data()
	for r := 0; r < s; r++ {
		row := d[r*k : (r+1)*k]
		nnz := tensor.CountNonzero(row)
		first, last := -1, -1
		if nnz > 0 {
			for first = 0; row[first] == 0; first++ {
			}
			for last = k - 1; row[last] == 0; last-- {
			}
		}
		sum[3*r], sum[3*r+1], sum[3*r+2] = int32(nnz), int32(first), int32(last)
	}
	return sum
}

// GEMMStats computes the statistics of GEMM(stationary, streaming) for a
// streaming operand of `streamCols` columns without performing arithmetic
// and without materialising the streaming matrix at all — SIGMA's cycle
// and traffic counters depend only on the stationary operand's nonzero
// structure and the column count. The memory-controller chunking of the
// full simulation is replayed over the operand's row summary: a chunk is
// ms_size consecutive nonzeros in row-major order, and its cost depends
// only on its length, on how many rows it touches, on whether it starts
// mid-row, and on how many of its row changes land on the column the
// previous row ended on — all of which the summary gives without visiting
// an element. Every column of a chunk costs the same, so the per-column
// cost is computed once and multiplied by streamCols, and the full chunks
// in the middle of a long row are identical and counted in one step: the
// replay is O(rows) after an O(S·K) summary scan that a pack cache shares
// across calls. Stats are bit-identical to the full simulation's (proven by
// the equivalence tests).
func (e *Engine) GEMMStats(stationary *tensor.Tensor, streamCols int) (stats.Stats, error) {
	if stationary.Rank() != 2 {
		return stats.Stats{}, fmt.Errorf("sigma: GEMMStats requires a 2-D stationary operand, got %v", stationary.Shape())
	}
	if streamCols < 0 {
		return stats.Stats{}, fmt.Errorf("sigma: GEMMStats streaming column count must be ≥ 0, got %d", streamCols)
	}
	s, k := stationary.Dim(0), stationary.Dim(1)
	m := int64(streamCols)
	dnBW, rnBW := int64(e.cfg.DNBandwidth), int64(e.cfg.RNBandwidth)
	present := e.cfg.AccumBuffer
	ms := int64(e.cfg.MSSize)

	var st stats.Stats
	st.Multipliers = e.cfg.MSSize
	st.Outputs = int64(s) * m
	var cycles, dnElems int64

	ceil := func(n, bw int64) int64 {
		if n <= 0 {
			return 0
		}
		return (n + bw - 1) / bw
	}

	// flush accounts for n identical chunks of the stationary fill.
	flush := func(n, chunkLen, uniqueK, segments, continued int64) {
		cycles += n * ceil(chunkLen, dnBW) // stationary fill
		dnElems += n * chunkLen
		st.WeightLoads += n * chunkLen
		var recirc int64
		if !present {
			recirc = continued
		}
		inCycles := ceil(uniqueK, dnBW)
		if recirc > 0 {
			inCycles += ceil(recirc, dnBW)
		}
		segPsums := chunkLen - segments
		drain := ceil(segments, rnBW)
		cycles += n * m * max(inCycles, drain, 1)
		dnElems += n * m * (uniqueK + recirc)
		st.SpatialPsums += n * m * segPsums
		st.Steps += n * m
		st.MACs += n * m * chunkLen
		st.AccumWrites += n * m * segments
		st.InputLoads += n * m * uniqueK
	}

	// Replay the chunking row by row. The open chunk holds chunkLen
	// nonzeros over `segments` rows; sharedK counts its row changes whose
	// first column repeats the previous row's last (the streaming element
	// is already on the network, so it is not a new unique K); continued
	// is 1 when the chunk opened mid-row, whose partial sum it must
	// re-accumulate.
	sum := e.rowSummary(stationary)
	var chunkLen, segments, sharedK, continued int64
	prevLast := int32(-1)
	for r := 0; r < s; r++ {
		nnz := int64(sum[3*r])
		if nnz == 0 {
			continue
		}
		segments++
		if chunkLen > 0 && sum[3*r+1] == prevLast {
			sharedK++
		}
		prevLast = sum[3*r+2]
		for nnz > 0 {
			take := min(nnz, ms-chunkLen)
			chunkLen += take
			nnz -= take
			if chunkLen < ms {
				break
			}
			flush(1, chunkLen, chunkLen-sharedK, segments, continued)
			// The rest of the row opens the following chunks mid-row: its
			// full chunks are all alike, its tail stays open.
			if full := nnz / ms; full > 0 {
				flush(full, ms, ms, 1, 1)
				nnz -= full * ms
			}
			chunkLen, segments, sharedK, continued = 0, 0, 0, 0
			if nnz > 0 {
				segments, continued = 1, 1
			}
		}
	}
	if chunkLen > 0 {
		flush(1, chunkLen, chunkLen-sharedK, segments, continued)
	}

	// FAN pipeline drain for the widest segment (bounded by the chunk).
	rn := fabric.ReductionNetwork{Kind: fabric.FEN}
	cycles += int64(rn.Depth(min(e.cfg.MSSize, k))) + 1
	st.Cycles = cycles
	st.DNElements = dnElems
	return st, nil
}

// Dense executes a fully connected layer (input [M, K] × weights [S, K] →
// [M, S]) with the weights stationary, the orientation SIGMA uses for
// sparse DNN inference.
func (e *Engine) Dense(in, weights *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	if in.Rank() != 2 || weights.Rank() != 2 {
		return nil, stats.Stats{}, fmt.Errorf("sigma: dense requires 2-D input and weights, got %v and %v", in.Shape(), weights.Shape())
	}
	if in.Dim(1) != weights.Dim(1) {
		return nil, stats.Stats{}, fmt.Errorf("sigma: dense reduction mismatch: input %v vs weights %v", in.Shape(), weights.Shape())
	}
	// The activation is new on every run: its transpose is a pooled
	// transient, never a pack-cache entry that would push out one that hits.
	inT := tensor.Transpose2DPooled(in)   // [K, M]
	prod, st, err := e.GEMM(weights, inT) // [S, M]
	inT.Release()
	if err != nil {
		return nil, stats.Stats{}, err
	}
	// Both the [S, M] intermediate and the [M, S] result are pooled, so a
	// caller that releases its outputs runs the layer allocation-free.
	m, s := in.Dim(0), weights.Dim(0)
	out := tensor.NewPooled(m, s)
	pd, od := prod.Data(), out.Data()
	for i := 0; i < s; i++ {
		for j := 0; j < m; j++ {
			od[j*s+i] = pd[i*m+j]
		}
	}
	prod.Release()
	return out, st, nil
}
