package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/farm"
)

// sweepMix is the benchmark's /batch mix at test size: MAERI conv under 8
// mappings × 2 operand seeds, MAERI dense under 4 fc mappings × 2 seeds,
// SIGMA conv at 50 % sparsity and TPU conv, 2 seeds each. 8 conv rows share
// each conv operand set and 4 dense rows each dense set.
func sweepMix(seed int64) []JobRequest {
	conv := &ConvSpec{C: 8, H: 6, K: 8, R: 3, Pad: 1}
	dense := &DenseSpec{K: 64, N: 32}
	var rows []JobRequest
	for s := int64(0); s < 2; s++ {
		for tk := 1; tk <= 8; tk++ {
			rows = append(rows, JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "conv2d", Conv: conv,
				Mapping: []int{1, 1, 1, tk, 1, 1, 1, 1}, Seed: seed + s})
		}
	}
	for s := int64(0); s < 2; s++ {
		for _, m := range [][]int{{1, 1, 1}, {4, 4, 1}, {8, 8, 1}, {16, 8, 1}} {
			rows = append(rows, JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense", Dense: dense,
				FCMapping: m, Seed: seed + 10 + s})
		}
	}
	for s := int64(0); s < 2; s++ {
		rows = append(rows, JobRequest{Arch: ArchSpec{Controller: "sigma", Sparsity: 50}, Op: "conv2d", Conv: conv,
			Seed: seed + 20 + s})
		rows = append(rows, JobRequest{Arch: ArchSpec{Controller: "tpu"}, Op: "conv2d", Conv: conv,
			Seed: seed + 30 + s})
	}
	return rows
}

// TestRegistrySharesOnlyEqualOperands: requests held at the same time that
// name the same seeded operands — the same seed, sparsity and shapes under
// different mappings or controllers — materialise pointer-identical tensors,
// while a request differing in any generator argument never aliases them,
// nor shares their stamped pack identity. Every holder, shared or not, keys
// exactly like its materialised job.
func TestRegistrySharesOnlyEqualOperands(t *testing.T) {
	fm := farm.New(1)
	t.Cleanup(fm.Close)
	srv := NewServer(fm)

	base := JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "conv2d",
		Conv: &ConvSpec{C: 4, H: 8, K: 8, R: 3}, Seed: 9}
	conv := func(mut func(*JobRequest)) JobRequest {
		v := base
		c := *base.Conv
		v.Conv = &c
		mut(&v)
		return v
	}
	shared := []JobRequest{base}
	for tk := 2; tk <= 4; tk++ {
		shared = append(shared, conv(func(r *JobRequest) { r.Mapping = []int{1, 1, 1, tk, 1, 1, 1, 1} }))
	}
	shared = append(shared, conv(func(r *JobRequest) { r.Arch = ArchSpec{Controller: "tpu"} }))
	distinct := map[string]JobRequest{
		"seed":     conv(func(r *JobRequest) { r.Seed = 10 }),
		"sparsity": conv(func(r *JobRequest) { r.Arch = ArchSpec{Controller: "sigma", Sparsity: 50} }),
		"input":    conv(func(r *JobRequest) { r.Conv.H = 9 }),
		"weights":  conv(func(r *JobRequest) { r.Conv.K = 4 }),
		"both":     conv(func(r *JobRequest) { r.Conv.C = 2 }),
	}
	all := append([]JobRequest(nil), shared...)
	names := make([]string, len(shared))
	for name, v := range distinct {
		all, names = append(all, v), append(names, name)
	}

	// Every holder takes its reference before any materialises, then all
	// materialise concurrently.
	type held struct {
		job     farm.Job
		key     string
		release func()
	}
	got := make([]held, len(all))
	var acquired, wg sync.WaitGroup
	acquired.Add(len(all))
	for i, req := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job, release, err := srv.operands.lazyJob(req)
			acquired.Done()
			if err != nil {
				t.Error(err)
				return
			}
			acquired.Wait()
			job = job.Materialize()
			key, err := job.Key()
			if err != nil {
				t.Error(err)
			}
			got[i] = held{job: job, key: key, release: release}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := srv.operands.len(); n != 1+len(distinct) {
		t.Errorf("registry holds %d operand sets, want %d", n, 1+len(distinct))
	}
	for i, h := range got {
		if want := eagerKey(t, all[i]); h.key != want {
			t.Errorf("row %d (%s): key %s, materialised %s", i, names[i], h.key, want)
		}
		first := got[0].job
		alias := h.job.Input == first.Input || h.job.Weights == first.Weights ||
			h.job.Input.ContentHash() == first.Input.ContentHash() ||
			h.job.Weights.ContentHash() == first.Weights.ContentHash()
		switch {
		case i < len(shared) && (h.job.Input != first.Input || h.job.Weights != first.Weights):
			t.Errorf("same-operand row %d got its own tensors", i)
		case i >= len(shared) && alias:
			t.Errorf("%s differs but aliased the base row's tensors", names[i])
		}
	}
	for _, h := range got {
		h.release()
	}
	if n := srv.operands.len(); n != 0 {
		t.Errorf("registry holds %d operand sets after every holder released, want 0", n)
	}
}

// TestBatchSweepMixMatchesEagerOracle: the benchmark's sweep mix through
// /batch, rows sharing operands in flight, answers every row exactly as the
// eager per-row oracle (JobRequest.Job + farm.Run) does — key, counters and
// output_sum bits — and leaves the registry empty.
func TestBatchSweepMixMatchesEagerOracle(t *testing.T) {
	fm := farm.New(2)
	srv := NewServer(fm)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); fm.Close() })

	reqs := sweepMix(40)
	got := postSweepNDJSON(t, ts.URL, "", reqs)
	if len(got) != len(reqs) {
		t.Fatalf("%d rows for %d requests", len(got), len(reqs))
	}
	for i, req := range reqs {
		job, err := req.Job()
		if err != nil {
			t.Fatal(err)
		}
		key, err := job.Key()
		if err != nil {
			t.Fatal(err)
		}
		res, err := farm.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		res.Key = key
		want := respond(res, 0)
		g := got[i]
		if g.Error != "" {
			t.Fatalf("row %d: %s", i, g.Error)
		}
		if g.Key != want.Key || *g.Stats != *want.Stats ||
			math.Float64bits(g.OutputSum) != math.Float64bits(want.OutputSum) {
			t.Errorf("row %d: key %s stats %+v sum %v; eager key %s stats %+v sum %v",
				i, g.Key, *g.Stats, g.OutputSum, want.Key, *want.Stats, want.OutputSum)
		}
	}
	if n := srv.operands.len(); n != 0 {
		t.Errorf("registry holds %d operand sets after the batch, want 0", n)
	}
}

// TestRegistryEmptyAfterCancelledBatch: a client that walks away from a
// batch whose rows hold operands leaves no entry behind.
func TestRegistryEmptyAfterCancelledBatch(t *testing.T) {
	fm := farm.New(1)
	srv := NewServer(fm)
	ts := httptest.NewServer(srv)
	started, release := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { ts.Close(); fm.Close() })
	defer close(release)
	go fm.Do(pinJob(30, started, release))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/batch", encodeNDJSON(t, sweepMix(50)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "batch rows to hold operands behind the pinned worker", func() bool {
		return srv.operands.len() > 0 && fm.Stats().Queued > 0
	})
	cancel()
	<-errc
	waitFor(t, "the cancelled batch to release its operands", func() bool { return srv.operands.len() == 0 })
}

// TestRegistryEmptyAfterCoordinatedBatch: a coordinator releases the
// operands it keyed for placement, and each peer those it simulated.
func TestRegistryEmptyAfterCoordinatedBatch(t *testing.T) {
	var nodes []*Server
	var peers []Peer
	for _, name := range []string{"w1", "w2"} {
		fm := farm.New(2)
		srv := NewServer(fm)
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); fm.Close() })
		nodes, peers = append(nodes, srv), append(peers, Peer{Name: name, URL: ts.URL})
	}
	coordFarm := farm.New(2)
	coord := NewServer(coordFarm, WithPeers(peers))
	cts := httptest.NewServer(coord)
	t.Cleanup(func() { cts.Close(); coord.Close(); coordFarm.Close() })
	nodes = append(nodes, coord)

	for i, row := range postSweepNDJSON(t, cts.URL, "", sweepMix(60)) {
		if row.Error != "" || row.Peer == "" {
			t.Fatalf("row %d: peer %q error %q", i, row.Peer, row.Error)
		}
	}
	for i, n := range nodes {
		if k := n.operands.len(); k != 0 {
			t.Errorf("node %d holds %d operand sets after the batch, want 0", i, k)
		}
	}
}

// TestBatchBuildsSharedOperandsOnce: a /batch of six K1024×N256 dense rows
// that share one seed under six fc mappings builds their operand pair once
// — at fan-out 1, where each row waits for the one before it to finish, at
// fan-out 2, and as a journaled sweep — and leaves the registry empty. At
// fan-out 1 the pair outlives each row only because the next row holds it
// from admission, before the running one is answered.
func TestBatchBuildsSharedOperandsOnce(t *testing.T) {
	var reqs []JobRequest
	for _, m := range [][]int{{1, 1, 1}, {2, 2, 1}, {4, 4, 1}, {8, 8, 1}, {16, 8, 1}, {4, 16, 1}} {
		reqs = append(reqs, JobRequest{Arch: ArchSpec{Controller: "maeri"}, Op: "dense",
			Dense: &DenseSpec{K: 1024, N: 256}, FCMapping: m, Seed: 3})
	}
	for _, tc := range []struct {
		name  string
		farm  func() *farm.Farm
		query string
	}{
		{"fan-out 1", func() *farm.Farm { return farm.New(1, farm.WithMaxQueue(1)) }, ""},
		{"fan-out 2", func() *farm.Farm { return farm.New(1) }, ""},
		{"sweep", func() *farm.Farm { return farm.New(1, farm.WithMaxQueue(1)) }, "sweep_id=shared"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fm := tc.farm()
			srv := NewServer(fm)
			ts := httptest.NewServer(srv)
			t.Cleanup(func() { ts.Close(); fm.Close() })

			before := srv.operands.builds.Load()
			rows := postSweepNDJSON(t, ts.URL, tc.query, reqs)
			for i, row := range rows {
				if row.Error != "" || row.Cached {
					t.Fatalf("row %d: error %q cached %v, want a fresh result", i, row.Error, row.Cached)
				}
			}
			if len(rows) != len(reqs) {
				t.Fatalf("%d rows for %d requests", len(rows), len(reqs))
			}
			if n := srv.operands.builds.Load() - before; n != 1 {
				t.Errorf("six rows sharing one operand set built it %d times, want 1", n)
			}
			if n := srv.operands.len(); n != 0 {
				t.Errorf("registry holds %d operand sets after the batch, want 0", n)
			}
		})
	}
}
