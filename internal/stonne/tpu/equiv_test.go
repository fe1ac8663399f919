package tpu

import (
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/oracle"
	"repro/internal/tensor"
)

// TestGEMMStatsMatchesMesh proves the closed-form stats and the fast GEMM
// bit-identical to the oracle's cycle-ticked mesh, including shapes that leave boundary
// tiles on both output axes.
func TestGEMMStatsMatchesMesh(t *testing.T) {
	type geo struct{ m, k, n int }
	geos := []geo{
		{8, 8, 8},
		{13, 5, 9}, // boundary tiles on both axes
		{1, 17, 1},
		{20, 3, 33},
	}
	cfg := config.Default(config.TPUOSDense).Normalize()
	for _, g := range geos {
		a := tensor.RandomUniform(int64(g.m), 1, g.m, g.k)
		b := tensor.RandomUniform(int64(g.n), 1, g.k, g.n)
		wantOut, want, err := oracle.GEMM(cfg, a, b)
		if err != nil {
			t.Fatal(err)
		}

		// The engine is closed-form counters + fast GEMM arithmetic: Stats
		// AND output bytes must match the mesh.
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fusedOut, fused, err := eng.GEMM(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if fused != want {
			t.Errorf("geo=%+v: fused stats diverge:\n fused %+v\n mesh %+v", g, fused, want)
		}
		if i := tensor.FirstBitDiff(wantOut, fusedOut); i >= 0 {
			t.Errorf("geo=%+v: fused output diverges at element %d: %v vs %v",
				g, i, fusedOut.Data()[i], wantOut.Data()[i])
		}
		// The counters-only entry needs the shapes alone.
		got, err := eng.GEMMStats(g.m, g.k, g.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("geo=%+v:\n closed form %+v\n mesh %+v", g, got, want)
		}
	}
}
