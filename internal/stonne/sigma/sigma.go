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

// Engine simulates one SIGMA instance. An Engine reuses its fabric models
// across calls and is therefore not safe for concurrent use; create one
// engine per goroutine.
type Engine struct {
	cfg config.HWConfig

	// DryRun skips output arithmetic while keeping every counter exact.
	// SIGMA's per-column costs are identical across the streaming matrix's
	// columns, so the dry run folds the column loop into a multiplication
	// and needs only the stationary operand's row summary — O(rows)
	// instead of O(nnz × columns).
	//
	// Counters and arithmetic are decoupled (PR 4): by default full-accuracy
	// runs also skip the chunk-by-chunk simulation loop — Stats come from
	// the GEMMStats row-summary replay and the output from the fast GEMM
	// kernel, both bit-identical to the reference (the chunk loop adds
	// every stationary nonzero's product directly onto its output element
	// in ascending-K order, exactly the chain tensor.GEMM computes).
	DryRun bool

	// Reference forces the chunk-by-chunk simulation loop — counters and,
	// for full-accuracy runs, arithmetic. It exists to validate the fused
	// fast path and to reproduce its derivation.
	Reference bool

	// Pack, when set, lets the fused route reuse content-keyed derived
	// forms across engines: packed operand panels, input transposes and the
	// stationary operand's row summary. Counters and outputs are bitwise
	// identical with or without it.
	Pack *tensor.PackCache

	dn *fabric.DistributionNetwork
	rn *fabric.ReductionNetwork
	ab *fabric.AccumulationBuffer
}

// fabrics returns the engine's fabric models, creating them on first use
// and resetting their counters on every call thereafter.
func (e *Engine) fabrics() (*fabric.DistributionNetwork, *fabric.ReductionNetwork, *fabric.AccumulationBuffer, error) {
	if e.dn == nil {
		dn, err := fabric.NewDistributionNetwork(e.cfg.DNBandwidth)
		if err != nil {
			return nil, nil, nil, err
		}
		rn, err := fabric.NewReductionNetwork(fabric.FEN, e.cfg.RNBandwidth)
		if err != nil {
			return nil, nil, nil, err
		}
		e.dn, e.rn, e.ab = dn, rn, fabric.NewAccumulationBuffer(e.cfg.AccumBuffer)
		return e.dn, e.rn, e.ab, nil
	}
	e.dn.Reset()
	e.rn.Reset()
	e.ab.Reset()
	return e.dn, e.rn, e.ab, nil
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

// nonzero is one stationary element: value, its row and its reduction
// coordinate (the shared K dimension).
type nonzero struct {
	row, k int
	v      float32
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
	s, k := stationary.Dim(0), stationary.Dim(1)
	k2, m := streaming.Dim(0), streaming.Dim(1)
	if k != k2 {
		return nil, stats.Stats{}, fmt.Errorf("sigma: GEMM inner dimensions differ: %v × %v", stationary.Shape(), streaming.Shape())
	}
	if !e.Reference {
		// Fused fast path: analytic counters (GEMMStats), and for
		// full-accuracy runs the fast GEMM kernel — the chunk loop is never
		// entered. The reference arithmetic accumulates each output element
		// directly, one add per stationary nonzero in ascending K (chunk
		// boundaries never regroup the chain), so tensor.GEMM — for which
		// the zero elements the chunk loop never materialised are skipped
		// or a bitwise no-op — reproduces the output bytes exactly.
		st, err := e.GEMMStats(stationary, m)
		if err != nil || e.DryRun {
			return nil, st, err
		}
		return tensor.GEMMCached(stationary, streaming, e.Pack), st, nil
	}
	dn, rn, ab, err := e.fabrics()
	if err != nil {
		return nil, stats.Stats{}, err
	}

	// The memory controller compresses the stationary operand. Metadata
	// (bitmap) travels out of band; only values use multiplier slots.
	var nz []nonzero
	stD := stationary.Data()
	for r := 0; r < s; r++ {
		for c := 0; c < k; c++ {
			if v := stD[r*k+c]; v != 0 {
				nz = append(nz, nonzero{row: r, k: c, v: v})
			}
		}
	}

	out := tensor.New(s, m)
	outD := out.Data()
	strD := streaming.Data()
	var st stats.Stats
	st.Multipliers = e.cfg.MSSize
	st.Outputs = int64(s) * int64(m)
	var cycles int64
	ms := e.cfg.MSSize

	seenRow := make([]int, s) // round stamp per row, to detect continued rows
	for i := range seenRow {
		seenRow[i] = -1
	}
	round := 0
	for base := 0; base < len(nz); base += ms {
		chunk := nz[base:min(base+ms, len(nz))]

		// Stationary fill: the chunk's values stream through the
		// distribution network into the Flex-DPEs.
		cycles += dn.Deliver(int64(len(chunk)))
		st.WeightLoads += int64(len(chunk))

		// Chunk shape: distinct streaming coordinates (multicast across
		// rows sharing a k) and row segments (each segment is one FAN
		// reduction group; segments continuing a previous round's row must
		// re-accumulate).
		uniqueK := 0
		lastK := -1
		segments := 0
		lastRow := -1
		continued := int64(0)
		for _, el := range chunk {
			if el.k != lastK {
				uniqueK++
				lastK = el.k
			}
			if el.row != lastRow {
				segments++
				lastRow = el.row
				if seenRow[el.row] >= 0 {
					continued++
				}
				seenRow[el.row] = round
			}
		}

		// Streaming phase: for every output column, deliver the uniqueK
		// streaming elements (multicast across row groups), reduce each row
		// segment through the FAN tree, and drain the segment results.
		segPsums := int64(len(chunk) - segments) // v−1 adds per segment, summed
		for col := 0; col < m; col++ {
			inCycles := dn.Deliver(int64(uniqueK))
			ab.Accumulate(int64(segments)-continued, true)
			recirc := ab.Accumulate(continued, false)
			if recirc > 0 {
				inCycles += dn.Deliver(recirc)
			}
			rn.Psums += segPsums
			st.SpatialPsums += segPsums
			drain := rn.Drain(int64(segments))
			cycles += max(inCycles, drain, 1)
			st.Steps++
			st.MACs += int64(len(chunk))
			st.AccumWrites += int64(segments)
			st.InputLoads += int64(uniqueK)

			// Exact arithmetic for this chunk/column.
			for _, el := range chunk {
				outD[el.row*m+col] += el.v * strD[el.k*m+col]
			}
		}
		round++
	}
	// FAN pipeline drain for the widest segment (bounded by the chunk).
	cycles += int64(rn.Depth(min(ms, k))) + 1
	st.Cycles = cycles
	st.DNElements = dn.Elements
	return out, st, nil
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
	if e.DryRun {
		st, err := e.GEMMStats(weights, in.Dim(0))
		return nil, st, err
	}
	if e.Reference {
		// The reference chunk loop keeps a private copy to stay conservative.
		prod, st, err := e.GEMM(weights, in.Transpose(1, 0)) // [S, M]
		if err != nil {
			return nil, stats.Stats{}, err
		}
		return prod.Transpose(1, 0), st, nil
	}
	// The fused route never mutates operands, so the transposed input can be
	// shared content-keyed across the jobs of a sweep (the same activation is
	// typically submitted under many mappings/configs).
	prod, st, err := e.GEMM(weights, tensor.Transpose2DCached(in, e.Pack)) // [S, M]
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
