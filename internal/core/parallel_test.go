package core

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

// branchyModel builds a two-branch CNN whose conv layers are offloaded, so
// the wavefront executor has real accelerator work to run concurrently.
func branchyModel() (*graph.Graph, map[string]*tensor.Tensor) {
	g := graph.New("branchy")
	in := g.Input("data", 1, 2, 10, 10)
	var branches []*graph.Node
	for i := 0; i < 2; i++ {
		w := g.Constant(fmt.Sprintf("w%d", i), tensor.RandomUniform(int64(20+i), 1, 4, 2, 3, 3))
		c := g.Conv2D(fmt.Sprintf("conv%d", i), in, w, graph.Attrs{PadH: 1, PadW: 1})
		branches = append(branches, g.ReLU(fmt.Sprintf("relu%d", i), c))
	}
	sum := g.Add("sum", branches[0], branches[1])
	g.MarkOutput(sum)
	return g, map[string]*tensor.Tensor{"data": tensor.RandomUniform(5, 1, 1, 2, 10, 10)}
}

// TestSessionParallelExecBitIdentical proves a wavefront-scheduled session
// (GOMAXPROCS 4, with and without a farm) produces bitwise-identical outputs
// and the same per-layer records, in the same topological order, as the
// serial session (GOMAXPROCS 1).
func TestSessionParallelExecBitIdentical(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	run := func(procs int, fm *farm.Farm) ([]*tensor.Tensor, []api.LayerRecord) {
		t.Helper()
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.WithFarm(fm)
		g, feeds := branchyModel()
		prev := runtime.GOMAXPROCS(procs)
		outs, err := s.Run(g, feeds)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d farm=%v: %v", procs, fm != nil, err)
		}
		return outs, s.Records()
	}
	want, recs := run(1, nil)
	if len(recs) != 2 || recs[0].Name != "conv0" || recs[1].Name != "conv1" {
		t.Fatalf("serial records %v, want conv0 then conv1", recs)
	}

	fm := farm.New(4)
	defer fm.Close()
	for _, f := range []*farm.Farm{nil, fm} {
		got, gotRecs := run(4, f)
		if i := tensor.FirstBitDiff(want[0], got[0]); i >= 0 {
			t.Fatalf("farm=%v: element %d = %v, want %v (not bitwise identical)",
				f != nil, i, got[0].Data()[i], want[0].Data()[i])
		}
		if !reflect.DeepEqual(recs, gotRecs) {
			t.Fatalf("farm=%v: records diverge:\n serial   %v\n parallel %v", f != nil, recs, gotRecs)
		}
	}
}

// TestParallelAlexNetBitIdentical runs full AlexNet through Session.Run on
// MAERI and on SIGMA (weights half zeros) at GOMAXPROCS 1 and 4: the output
// hash and the counters must match, and at 4 the layers must have been
// split.
func TestParallelAlexNetBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full AlexNet")
	}
	g := models.AlexNet(3)
	for _, n := range g.Nodes() {
		if n.Op == graph.OpConstant && strings.HasSuffix(n.Name, ".weight") {
			w := n.Value.Data()
			for i := 0; i < len(w); i += 2 {
				w[i] = 0
			}
		}
	}
	in := tensor.RandomUniform(4, 1, 1, 3, 227, 227)
	for _, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM} {
		var hashes [2][32]byte
		var totals [2]string
		var launches [2]int64
		for i, procs := range []int{1, 4} {
			s, err := NewSession(config.Default(ct))
			if err != nil {
				t.Fatal(err)
			}
			prev := runtime.GOMAXPROCS(procs)
			before := tensor.HelperLaunches()
			outs, err := s.Run(g, map[string]*tensor.Tensor{"data": in})
			launches[i] = tensor.HelperLaunches() - before
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", ct, err)
			}
			hashes[i], totals[i] = outs[0].ContentHash(), s.TotalStats().String()
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: output hash differs between GOMAXPROCS 1 and 4", ct)
		}
		if totals[0] != totals[1] {
			t.Errorf("%s: counters differ between GOMAXPROCS 1 and 4:\n %s\n %s", ct, totals[0], totals[1])
		}
		if launches[0] != 0 || launches[1] == 0 {
			t.Errorf("%s: helpers started at GOMAXPROCS 1 / 4: %d / %d, want 0 / > 0", ct, launches[0], launches[1])
		}
	}
}
