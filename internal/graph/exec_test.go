package graph

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
)

// branchyGraph builds a multi-branch model: one stem convolution feeding
// four independent convolution branches that are reduced pairwise by
// element-wise adds.
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

// TestExecutorOffloadsInTopoOrder runs a four-branch graph on four cores
// with an Offload that holds every call for about a millisecond: the
// executor must call it in exactly TopoSort order and never twice at once,
// so an OffloadFunc needs no locking of its own.
func TestExecutorOffloadsInTopoOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g, feeds := branchyGraph(t)
	var (
		mu             sync.Mutex
		calls          []string
		inflight, peak int
	)
	offload := func(n *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
		mu.Lock()
		calls = append(calls, n.Name)
		inflight++
		peak = max(peak, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return nil, false, nil
	}
	if _, err := (&Executor{Graph: g, Offload: offload}).Run(feeds); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(order))
	for i, n := range order {
		want[i] = n.Name
	}
	if !slices.Equal(calls, want) {
		t.Errorf("offload order %v, want topological order %v", calls, want)
	}
	if peak != 1 {
		t.Errorf("%d offload calls ran at once, want 1", peak)
	}
}

// TestParallelExecError checks that a failing node surfaces its error.
func TestParallelExecError(t *testing.T) {
	g, feeds := branchyGraph(t)
	failing := func(n *Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
		if n.Name == "b2_conv" {
			return nil, false, fmt.Errorf("injected failure")
		}
		return nil, false, nil
	}
	_, err := (&Executor{Graph: g, Offload: failing}).Run(feeds)
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("expected injected failure, got %v", err)
	}
}

// TestParallelExecMissingFeed checks the error path for an absent input
// feed.
func TestParallelExecMissingFeed(t *testing.T) {
	g, _ := branchyGraph(t)
	_, err := (&Executor{Graph: g}).Run(map[string]*tensor.Tensor{})
	if err == nil || !strings.Contains(err.Error(), "no feed") {
		t.Fatalf("expected missing-feed error, got %v", err)
	}
}
