package core

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

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
