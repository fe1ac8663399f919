package graph

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/tensor"
)

// branchyGraph builds a multi-branch model: one stem convolution feeding
// four independent convolution branches that are reduced pairwise by
// element-wise adds — enough width for the wavefront executor to actually
// run branches concurrently.
func branchyGraph(t testing.TB) (*Graph, map[string]*tensor.Tensor) {
	t.Helper()
	g := New("branchy")
	in := g.Input("data", 1, 4, 12, 12)
	stemW := g.Constant("stem_w", tensor.RandomUniform(1, 1, 8, 4, 3, 3))
	stem := g.Conv2D("stem", in, stemW, Attrs{PadH: 1, PadW: 1})
	var branches []*Node
	for i := 0; i < 4; i++ {
		w := g.Constant(fmt.Sprintf("b%d_w", i), tensor.RandomUniform(int64(10+i), 1, 8, 8, 3, 3))
		c := g.Conv2D(fmt.Sprintf("b%d_conv", i), stem, w, Attrs{PadH: 1, PadW: 1})
		branches = append(branches, g.ReLU(fmt.Sprintf("b%d_relu", i), c))
	}
	l := g.Add("merge_l", branches[0], branches[1])
	r := g.Add("merge_r", branches[2], branches[3])
	out := g.Add("merge", l, r)
	g.MarkOutput(out)
	feeds := map[string]*tensor.Tensor{"data": tensor.RandomUniform(99, 1, 1, 4, 12, 12)}
	return g, feeds
}

// withProcs runs f at GOMAXPROCS procs: 1 selects the serial executor, more
// the wavefront.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestParallelExecBitwiseEqual proves wavefront execution bit-identical to
// serial execution (GOMAXPROCS 1) at any core count, with and without an
// offload.
func TestParallelExecBitwiseEqual(t *testing.T) {
	g, feeds := branchyGraph(t)
	// A concurrency-safe offload that handles ReLU nodes by doubling them,
	// to prove offloaded nodes follow the same path in both executors.
	var offloadCalls atomic.Int32
	offload := func(n *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
		if n.Op != OpReLU {
			return nil, false, nil
		}
		offloadCalls.Add(1)
		out := ins[0].Clone()
		for i, v := range out.Data() {
			if v < 0 {
				out.Data()[i] = 0
			}
		}
		return out, true, nil
	}
	plain, off := &Executor{Graph: g}, &Executor{Graph: g, Offload: offload}
	var want, wantOff []*tensor.Tensor
	var err error
	withProcs(1, func() {
		if want, err = plain.Run(feeds); err == nil {
			wantOff, err = off.Run(feeds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, procs := range []int{2, 8} {
		for _, tc := range []struct {
			name string
			ex   *Executor
			want []*tensor.Tensor
		}{
			{"plain", plain, want},
			{"offload", off, wantOff},
		} {
			var got []*tensor.Tensor
			withProcs(procs, func() { got, err = tc.ex.Run(feeds) })
			if err != nil {
				t.Fatalf("%s GOMAXPROCS=%d: %v", tc.name, procs, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%s GOMAXPROCS=%d: %d outputs, want %d", tc.name, procs, len(got), len(tc.want))
			}
			for oi := range got {
				for i := range got[oi].Data() {
					if got[oi].Data()[i] != tc.want[oi].Data()[i] {
						t.Fatalf("%s GOMAXPROCS=%d: output %d element %d = %v, want %v (not bitwise identical)",
							tc.name, procs, oi, i, got[oi].Data()[i], tc.want[oi].Data()[i])
					}
				}
			}
		}
	}
	// Each of the three offload runs diverts the four ReLUs exactly once.
	if got := offloadCalls.Load(); got != 12 {
		t.Fatalf("offload called %d times over three runs, want 12", got)
	}
}

// TestParallelExecError checks that a failing node surfaces its error and
// the executor terminates cleanly (no deadlock, no panic), serially and
// under wavefront scheduling.
func TestParallelExecError(t *testing.T) {
	g, feeds := branchyGraph(t)
	failing := func(n *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
		if n.Name == "b2_conv" {
			return nil, false, fmt.Errorf("injected failure")
		}
		return nil, false, nil
	}
	ex := &Executor{Graph: g, Offload: failing}
	for _, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() { _, err = ex.Run(feeds) })
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("GOMAXPROCS=%d: expected injected failure, got %v", procs, err)
		}
	}
}

// TestParallelExecMissingFeed checks the error path for an absent input
// feed, serially and under wavefront scheduling.
func TestParallelExecMissingFeed(t *testing.T) {
	g, _ := branchyGraph(t)
	ex := &Executor{Graph: g}
	for _, procs := range []int{1, 4} {
		var err error
		withProcs(procs, func() { _, err = ex.Run(map[string]*tensor.Tensor{}) })
		if err == nil || !strings.Contains(err.Error(), "no feed") {
			t.Fatalf("GOMAXPROCS=%d: expected missing-feed error, got %v", procs, err)
		}
	}
}
