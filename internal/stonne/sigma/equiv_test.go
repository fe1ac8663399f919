package sigma

import (
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/oracle"
	"repro/internal/tensor"
)

// TestGEMMStatsMatchesSimulation proves the row-summary stats pass and the
// fast GEMM bit-identical to the oracle's chunk-by-chunk simulation across sparsity levels, accumulation
// buffer settings and awkward (non-multiple-of-ms_size) shapes.
func TestGEMMStatsMatchesSimulation(t *testing.T) {
	type geo struct{ s, k, m int }
	geos := []geo{
		{8, 16, 5},
		{13, 29, 7}, // rows spanning chunk boundaries
		{4, 4, 1},
		{31, 9, 12},
	}
	sparsities := []float64{0, 0.3, 0.9, 1}
	for _, accum := range []bool{true, false} {
		for _, g := range geos {
			for si, sp := range sparsities {
				cfg := config.Default(config.SIGMASparseGEMM)
				cfg.AccumBuffer = accum
				cfg = cfg.Normalize()
				stationary := tensor.RandomUniform(int64(100*si+g.s), 1, g.s, g.k)
				tensor.Prune(stationary, sp)
				streaming := tensor.RandomUniform(7, 1, g.k, g.m)

				wantOut, want, err := oracle.GEMM(cfg, stationary, streaming)
				if err != nil {
					t.Fatal(err)
				}

				// The engine is analytic counters + fast GEMM arithmetic:
				// Stats AND output bytes must match the chunk loop.
				eng, err := NewEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				fusedOut, fused, err := eng.GEMM(stationary, streaming)
				if err != nil {
					t.Fatal(err)
				}
				if fused != want {
					t.Errorf("geo=%+v sparsity=%.1f accum=%v: fused stats diverge:\n fused %+v\n ref   %+v", g, sp, accum, fused, want)
				}
				if i := tensor.FirstBitDiff(wantOut, fusedOut); i >= 0 {
					t.Errorf("geo=%+v sparsity=%.1f accum=%v: fused output diverges at element %d: %v vs %v",
						g, sp, accum, i, fusedOut.Data()[i], wantOut.Data()[i])
				}
				// The counters-only entry needs no streaming operand at all.
				got, err := eng.GEMMStats(stationary, g.m)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("geo=%+v sparsity=%.1f accum=%v:\n stats pass %+v\n simulation %+v", g, sp, accum, got, want)
				}
			}
		}
	}
}

// TestDenseDryRun checks the counters-only entry against the dense layer:
// GEMMStats over the weights and the batch size reports what Dense — and the
// oracle's Dense — report, without an input tensor.
func TestDenseDryRun(t *testing.T) {
	cfg := config.Default(config.SIGMASparseGEMM).Normalize()
	in := tensor.RandomUniform(3, 1, 4, 32)
	w := tensor.RandomUniform(4, 1, 10, 32)
	tensor.Prune(w, 0.5)

	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, want, err := eng.Dense(in, w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.GEMMStats(w, in.Dim(0))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("dense counters-only stats diverge:\n dry %+v\n sim %+v", got, want)
	}
	refOut, ref, err := oracle.Dense(cfg, in, w, mapping.FCMapping{})
	if err != nil {
		t.Fatal(err)
	}
	if ref != want {
		t.Errorf("dense stats diverge from the chunk loop:\n engine %+v\n oracle %+v", want, ref)
	}
	if i := tensor.FirstBitDiff(refOut, out); i >= 0 {
		t.Errorf("dense output diverges from the chunk loop at element %d", i)
	}
}

// stationaryOf builds a [len(rows), k] stationary matrix whose row r is
// nonzero exactly at the columns rows[r].
func stationaryOf(k int, rows ...[]int) *tensor.Tensor {
	t := tensor.New(len(rows), k)
	for r, cols := range rows {
		for _, c := range cols {
			t.Set(float32(1+r+c), r, c)
		}
	}
	return t
}

// span returns the columns lo, lo+1, …, hi-1.
func span(lo, hi int) []int {
	var cols []int
	for c := lo; c < hi; c++ {
		cols = append(cols, c)
	}
	return cols
}

// cfgWith is a configuration NewEngine's validation would refuse: multiplier
// counts (ms_size 1, 2) no real configuration allows but where every nonzero
// is a chunk boundary.
func cfgWith(ms int, accum bool) config.HWConfig {
	cfg := config.Default(config.SIGMASparseGEMM)
	cfg.MSSize, cfg.AccumBuffer = ms, accum
	cfg.DNBandwidth, cfg.RNBandwidth = 4, 2 // narrow, so every ceil() matters
	return cfg
}

// engineWith builds an engine around cfgWith without validating it.
func engineWith(ms int, accum bool, pack *tensor.PackCache) *Engine {
	return &Engine{cfg: cfgWith(ms, accum), Pack: pack}
}

// TestGEMMStatsMatchesReferenceAdversarial pins the row-summary replay to
// the oracle's chunk loop on the structures where a summary could lose
// information: chunk boundaries at and inside rows, empty rows, rows longer
// than several chunks, and row changes that land on the previous row's last
// column (which the chunk loop does not count as a new streaming element —
// unless a chunk boundary falls between them).
func TestGEMMStatsMatchesReferenceAdversarial(t *testing.T) {
	cases := []struct {
		name string
		k    int
		rows [][]int
	}{
		{"all zero", 6, [][]int{{}, {}, {}}},
		{"nnz below ms_size", 12, [][]int{{}, {2, 7, 9}}},
		{"empty rows between dense ones", 8, [][]int{span(0, 8), {}, {}, span(0, 8), {}, span(0, 8), {}}},
		{"boundary exactly at a row end", 16, [][]int{span(0, 8), {1, 2, 3}, span(3, 8), {0}}},
		{"boundary mid-row", 16, [][]int{span(0, 5), span(2, 8), span(0, 7)}},
		{"row spanning several full chunks", 64, [][]int{{3, 4, 5}, span(5, 48), {47, 50}, span(0, 64)}},
		{"shared column inside a chunk", 10, [][]int{{1, 5}, {5, 7}, {7}, {7, 9}}},
		{"shared column across an empty row", 10, [][]int{{0, 4}, {}, {4, 6}, {}, {}, {6}}},
		{"shared column split by a chunk boundary", 16, [][]int{span(0, 8), {7, 9}, span(2, 8), {7}}},
		{"single column", 1, [][]int{{0}, {0}, {}, {0}, {0}, {0}}},
	}
	for _, tc := range cases {
		stationary := stationaryOf(tc.k, tc.rows...)
		for _, ms := range []int{1, 2, 8, 16} {
			for _, accum := range []bool{true, false} {
				checkStatsAgainstReference(t, tc.name, stationary, ms, accum)
			}
		}
	}

	// The same oracle over seeded random structure: per-row densities from
	// empty to full, so every mix of the cases above occurs somewhere.
	for seed := int64(0); seed < 40; seed++ {
		s, k := 1+int(seed%7), 1+int(seed*5%23)
		stationary := tensor.RandomUniform(seed, 1, s, k)
		for r := 0; r < s; r++ {
			row := tensor.FromData(stationary.Data()[r*k:(r+1)*k], k)
			tensor.Prune(row, float64((seed+int64(r)*3)%11)/10)
		}
		for _, ms := range []int{1, 2, 8} {
			checkStatsAgainstReference(t, "random", stationary, ms, seed%2 == 0)
		}
	}
}

func checkStatsAgainstReference(t *testing.T, name string, stationary *tensor.Tensor, ms int, accum bool) {
	t.Helper()
	const cols = 3
	streaming := tensor.RandomUniform(9, 1, stationary.Dim(1), cols)
	_, want, err := oracle.GEMM(cfgWith(ms, accum), stationary, streaming)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engineWith(ms, accum, nil).GEMMStats(stationary, cols)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("%s, ms_size=%d accum=%v: replay diverges from the chunk loop:\n replay    %+v\n reference %+v",
			name, ms, accum, got, want)
	}
}

// TestGEMMStatsMemoSharesOneSummary checks the content-keyed memo: engines
// of different configurations and calls with different streaming widths
// share one cached row summary, and a hit, a miss and a cache-less engine
// all report the same counters.
func TestGEMMStatsMemoSharesOneSummary(t *testing.T) {
	stationary := tensor.RandomUniform(5, 1, 37, 53)
	tensor.Prune(stationary, 0.6)
	pack := tensor.NewPackCache(0, 0)
	calls := 0
	for _, ms := range []int{8, 32} {
		for _, accum := range []bool{true, false} {
			for _, cols := range []int{1, 14} {
				want, err := engineWith(ms, accum, nil).GEMMStats(stationary, cols)
				if err != nil {
					t.Fatal(err)
				}
				// A content-equal copy must hit the entry the original made.
				for _, operand := range []*tensor.Tensor{stationary, stationary.Clone()} {
					got, err := engineWith(ms, accum, pack).GEMMStats(operand, cols)
					if err != nil {
						t.Fatal(err)
					}
					calls++
					if got != want {
						t.Errorf("ms_size=%d accum=%v cols=%d: memoised stats diverge:\n cached   %+v\n uncached %+v", ms, accum, cols, got, want)
					}
				}
			}
		}
	}
	if st := pack.Stats(); st.Puts != 1 || st.Entries != 1 || st.Hits != int64(calls-1) {
		t.Errorf("want one shared summary built once and hit %d times, got %+v", calls-1, st)
	}
}
