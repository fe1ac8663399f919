package oracle

import (
	"repro/internal/stonne/config"
	"repro/internal/stonne/fabric"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// sigmaGEMM computes out = stationary × streaming for stationary [S, K] and
// streaming [K, M] on SIGMA, chunk by chunk: the memory controller packs the
// stationary matrix's nonzeros, in row-major order, into rounds of ms_size
// Flex-DPE slots, and every round streams all M columns past them.
// Multiplications by stationary zeros never happen.
func sigmaGEMM(cfg config.HWConfig, stationary, streaming *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	s, k, m := stationary.Dim(0), stationary.Dim(1), streaming.Dim(1)
	dn, rn, ab, err := fabrics(cfg)
	if err != nil {
		return nil, stats.Stats{}, err
	}

	// The memory controller compresses the stationary operand. Metadata
	// (bitmap) travels out of band; only values use multiplier slots.
	type nonzero struct {
		row, k int
		v      float32
	}
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
	st.Multipliers = cfg.MSSize
	st.Outputs = int64(s) * int64(m)
	var cycles int64
	ms := cfg.MSSize

	seenRow := make([]bool, s) // rows an earlier round already started
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
				if seenRow[el.row] {
					continued++
				}
				seenRow[el.row] = true
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
	}
	// FAN pipeline drain for the widest segment (bounded by the chunk).
	cycles += int64(rn.Depth(min(ms, k))) + 1
	st.Cycles = cycles
	st.DNElements = dn.Elements
	return out, st, nil
}

// tpuGEMM computes out = a × b for a [M, K] and b [K, N] on the TPU's
// OS_MESH, cycle by cycle, PE by PE: the output is tiled into ms_rows ×
// ms_cols blocks, and each block is computed output-stationary with its
// zero-padded operand tiles streamed through the skewed edges.
func tpuGEMM(cfg config.HWConfig, a, b *tensor.Tensor) (*tensor.Tensor, stats.Stats, error) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	rows, cols := cfg.MSRows, cfg.MSCols
	mesh, err := fabric.NewSystolicMesh(rows, cols)
	if err != nil {
		return nil, stats.Stats{}, err
	}
	out := tensor.New(m, n)
	var st stats.Stats
	st.Multipliers = rows * cols
	st.Outputs = int64(m) * int64(n)
	st.MACs = int64(m) * int64(k) * int64(n)

	aTile := make([]float32, rows*k)
	bTile := make([]float32, k*cols)
	for r0 := 0; r0 < m; r0 += rows {
		tr := min(rows, m-r0)
		clear(aTile)
		for r := 0; r < tr; r++ {
			copy(aTile[r*k:(r+1)*k], a.Data()[(r0+r)*k:(r0+r+1)*k])
		}
		for c0 := 0; c0 < n; c0 += cols {
			tc := min(cols, n-c0)
			clear(bTile)
			for kk := 0; kk < k; kk++ {
				copy(bTile[kk*cols:kk*cols+tc], b.Data()[kk*n+c0:kk*n+c0+tc])
			}
			tileOut, tileCycles := mesh.MultiplyTile(aTile, bTile, k)
			// Edge traffic: each of the tr active rows and tc active
			// columns receives k operands over the run.
			elems := int64(k) * int64(tr+tc)
			st.Cycles += tileCycles
			st.DNElements += elems
			st.InputLoads += elems
			st.AccumWrites += int64(tr) * int64(tc)
			st.Steps++
			for r := 0; r < tr; r++ {
				for c := 0; c < tc; c++ {
					out.Set(tileOut[r*cols+c], r0+r, c0+c)
				}
			}
		}
	}
	return out, st, nil
}
