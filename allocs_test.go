package bifrost

// Allocation-regression tests for the allocation-free steady state (PR 5):
// once the pack cache is warm and output tensors are recycled through the
// arena, the fused full-accuracy Conv2D and Dense paths must run at ~0
// allocations per operation. These pins are what keep the warm-sweep
// throughput from regressing via allocator pressure — a change that
// reintroduces per-job packing or fresh tensor allocations fails here
// before it shows up in a benchmark.

import (
	"io"
	"log/slog"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/sigma"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// steadyStateAllocs measures allocations per run after a warmup that fills
// the pack cache and the tensor arena.
func steadyStateAllocs(run func()) float64 {
	for i := 0; i < 5; i++ {
		run() // warm: publish packs, grow scratch, seed the arena
	}
	return testing.AllocsPerRun(50, run)
}

// TestFusedConvSteadyStateAllocFree pins the fused full-accuracy Conv2D
// path — analytic counters plus the register-blocked arithmetic — to ~0
// allocs/op once the pooled scratch (tap tables, kernel panel, gather
// buffer) has grown and outputs are released back to the arena.
func TestFusedConvSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	d := tensor.ConvDims{N: 1, C: 32, H: 8, W: 8, K: 32, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 4, TG: 1, TN: 1, TX: 1, TY: 1}
	in := tensor.RandomUniform(1, 1, d.N, d.H, d.W, d.C)
	ker := tensor.RandomUniform(2, 1, d.R, d.S, d.C, d.K)
	eng, err := maeri.NewEngine(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}

	allocs := steadyStateAllocs(func() {
		out, _, err := eng.Conv2D(in, ker, d, m)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
	if allocs > 2 {
		t.Fatalf("steady-state fused Conv2D allocates %.1f/op, want ~0 (<= 2)", allocs)
	}
}

// TestSplitFusedConvAllocBound pins the split path of the fused Conv2D: on
// AlexNet's conv3 at GOMAXPROCS=2 every run hands rows to a helper, and at
// steady state that costs at most 2 allocations per run. The loop state,
// the bound row method and the helper's scratch are all pooled; what is
// left is the runtime's per-P caches (free goroutines, pool slots, wait
// queues) settling as work moves between the two Ps. testing.AllocsPerRun
// runs at GOMAXPROCS=1, where nothing splits, so the count comes from
// MemStats directly.
func TestSplitFusedConvAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := tensor.ConvDims{N: 1, C: 256, H: 13, W: 13, K: 384, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, d.N, d.H, d.W, d.C)
	ker := tensor.RandomUniform(2, 1, d.R, d.S, d.C, d.K)
	eng, err := maeri.NewEngine(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		out, _, err := eng.Conv2D(in, ker, d, mapping.Basic())
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	}
	for i := 0; i < 200; i++ {
		// A helper exits onto the other P's free-goroutine list; until the
		// runtime has rebalanced those lists, starting one allocates a g.
		tensor.ParallelFor(2, 1, func(int, int) {})
	}
	for i := 0; i < 10; i++ {
		run() // warm both Ps' pooled scratch and the arena
	}
	const runs = 20
	launches := tensor.HelperLaunches()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if split := tensor.HelperLaunches() - launches; split < runs {
		t.Fatalf("only %d of %d runs started a helper at GOMAXPROCS=2", split, runs)
	}
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > 2 {
		t.Fatalf("steady-state split Conv2D allocates %.1f/op, want <= 2", allocs)
	} else {
		t.Logf("steady-state split Conv2D: %.2f allocs/op", allocs)
	}
}

// TestFusedDenseSteadyStateAllocFree pins the fused full-accuracy Dense
// path the same way.
func TestFusedDenseSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	in := tensor.RandomUniform(1, 1, 4, 256)
	w := tensor.RandomUniform(2, 1, 128, 256)
	m := mapping.FCMapping{TS: 8, TK: 4, TN: 1}
	eng, err := maeri.NewEngine(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}

	allocs := steadyStateAllocs(func() {
		out, _, err := eng.Dense(in, w, m)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
	if allocs > 2 {
		t.Fatalf("steady-state fused Dense allocates %.1f/op, want ~0 (<= 2)", allocs)
	}
}

// TestSigmaDenseSteadyStateAllocFree pins SIGMA's fused Dense — memoised
// row-summary counters, the pooled input transpose and the skinny
// sparse-stationary kernel — to 0 allocs/op over pruned weights once the
// pack cache is warm: no per-run scan buffer, no fresh output.
func TestSigmaDenseSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	in := tensor.RandomUniform(1, 1, 1, 256)
	w := tensor.RandomUniform(2, 1, 128, 256)
	tensor.Prune(w, 0.5)
	eng, err := sigma.NewEngine(config.Default(config.SIGMASparseGEMM))
	if err != nil {
		t.Fatal(err)
	}
	eng.Pack = tensor.NewPackCache(0, 0)

	allocs := steadyStateAllocs(func() {
		out, _, err := eng.Dense(in, w)
		if err != nil {
			t.Fatal(err)
		}
		out.Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state SIGMA Dense allocates %.1f/op, want 0", allocs)
	}
}

// TestSigmaConvSteadyStateAllocFree pins the three steps of SIGMA's conv
// lowering (api.convViaGEMM) the same way: the cached kernel matrix, the
// counters replayed from its memoised row summary, and the implicit-GEMM
// sweep through the compacted sparse-stationary kernel.
func TestSigmaConvSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	d := tensor.ConvDims{N: 1, C: 32, H: 8, W: 8, K: 32, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomUniform(1, 1, d.N, d.C, d.H, d.W)
	ker := tensor.RandomUniform(2, 1, d.K, d.C, d.R, d.S)
	tensor.Prune(ker, 0.5)
	eng, err := sigma.NewEngine(config.Default(config.SIGMASparseGEMM))
	if err != nil {
		t.Fatal(err)
	}
	eng.Pack = tensor.NewPackCache(0, 0)

	allocs := steadyStateAllocs(func() {
		km := tensor.KernelMatrixCached(ker, d, 0, eng.Pack)
		if _, err := eng.GEMMStats(km, d.N*d.P()*d.Q()); err != nil {
			t.Fatal(err)
		}
		tensor.ConvGEMMImplicitCached(in, ker, d, 1, eng.Pack).Release()
	})
	if allocs > 0 {
		t.Fatalf("steady-state SIGMA conv lowering allocates %.1f/op, want 0", allocs)
	}
}

// TestKernelMatrixViewAllocBound pins tensor.KernelMatrix at a view's cost
// — the tensor header and its shape, at most 2 allocations — whatever the
// kernel size: a kernel matrix is never a copy of the kernel.
func TestKernelMatrixViewAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	for _, d := range []tensor.ConvDims{
		{N: 1, C: 4, H: 8, W: 8, K: 8, R: 3, S: 3, G: 2},
		{N: 1, C: 256, H: 13, W: 13, K: 384, R: 3, S: 3}, // AlexNet conv3
	} {
		if err := d.Resolve(); err != nil {
			t.Fatal(err)
		}
		ker := tensor.RandomUniform(2, 1, d.K, d.C/d.G, d.R, d.S)
		var km *tensor.Tensor
		if allocs := testing.AllocsPerRun(50, func() { km = tensor.KernelMatrix(ker, d, d.G-1) }); allocs > 2 {
			t.Fatalf("KernelMatrix of a %v kernel allocates %.1f/op, want ≤ 2", ker.Shape(), allocs)
		}
		if km.Size() != ker.Size()/d.G {
			t.Fatalf("kernel matrix holds %d values, want %d", km.Size(), ker.Size()/d.G)
		}
	}
}

// TestAnalyticDryRunAllocFree pins the counters-only measurement path (the
// tuner's cost signal) to zero allocations — it runs thousands of times per
// mapping search.
func TestAnalyticDryRunAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	d := tensor.ConvDims{N: 1, C: 64, H: 14, W: 14, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 8, TG: 1, TN: 1, TX: 1, TY: 1}
	eng, err := maeri.NewEngine(config.Default(config.MAERIDenseWorkload))
	if err != nil {
		t.Fatal(err)
	}
	eng.DryRun = true
	allocs := steadyStateAllocs(func() {
		if _, _, err := eng.Conv2D(nil, nil, d, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("analytic dry run allocates %.1f/op, want 0", allocs)
	}
}

// TestTelemetryRecordAllocFree pins the telemetry record path to zero
// allocations: sharded histograms and a full pooled span
// begin→observe→end cycle. These run on every job and every request,
// so a single allocation here would undo the allocation-free steady state
// the tests above protect.
func TestTelemetryRecordAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	reg := telemetry.NewRegistry()
	h := reg.Histogram("alloc_test_seconds", "test", nil)
	if allocs := testing.AllocsPerRun(100, func() {
		h.Observe(3e-4)
	}); allocs > 0 {
		t.Fatalf("metric record path allocates %.1f/op, want 0", allocs)
	}
	ph := telemetry.NewPhaseHistograms(reg, "alloc_test_phase_seconds", "test")
	if allocs := testing.AllocsPerRun(100, func() {
		sp := telemetry.BeginSpan()
		sp.Observe(telemetry.PhaseCompute, 250*1e3) // 250µs in ns
		ph.ObserveSpan(sp)
		telemetry.EndSpan(sp)
	}); allocs > 0 {
		t.Fatalf("span lifecycle allocates %.1f/op, want 0", allocs)
	}
}

// TestTracedFarmSteadyStateAllocFree pins what tracing adds to the farm's
// warm hit path: the path itself pays for key hashing and the caller's
// copy of the output, but span accounting and phase observations must add nothing, and a traced
// hit may add only the single echoed Trace object.
func TestTracedFarmSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	d := tensor.ConvDims{N: 1, C: 4, H: 10, W: 10, K: 8, R: 3, S: 3}
	job := farm.Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Conv2D, DryRun: true, Dims: d,
		ConvMapping: mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1},
	}
	f := NewFarm(1)
	defer f.Close()
	if _, err := f.Do(job); err != nil {
		t.Fatal(err)
	}

	// Baseline: the pre-existing warm hit path (key encode + hash, output
	// copy, hit counters). Tracing must not change it when off, and a traced hit
	// may add only the one Trace allocation on top.
	plain := steadyStateAllocs(func() {
		if _, err := f.Do(job); err != nil {
			t.Fatal(err)
		}
	})
	traced := job
	traced.Trace = true
	withTrace := steadyStateAllocs(func() {
		res, err := f.Do(traced)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace == nil {
			t.Fatal("traced warm hit returned no trace")
		}
	})
	if withTrace > plain+1.5 {
		t.Fatalf("traced warm hit allocates %.1f/op vs %.1f untraced — tracing must add at most the Trace object", withTrace, plain)
	}
}

// TestServeHitPathAllocBound pins the cache hit path at lookup cost: a
// memory-warm /simulate of the benchmark's standard conv row and of its
// K1024×N256 dense row allocates well under 64 KB per request — the JSON in
// and out and the caller's copy of the output, but never an operand (156
// KB and 1.0 MB respectively when every request regenerated and hashed
// them). A change that materialises operands on a hit fails here
// before it shows on the benchmark's sweep_hit_mixed workload.
func TestServeHitPathAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	f := NewFarm(1)
	defer f.Close()
	srv := serve.NewServer(f, serve.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	for name, body := range map[string]string{
		"conv":  `{"arch":{"controller":"maeri"},"op":"conv2d","conv":{"c":64,"h":6,"k":64,"r":3,"pad":1},"mapping":[1,1,1,4,1,1,1,1],"seed":5}`,
		"dense": `{"arch":{"controller":"maeri"},"op":"dense","dense":{"k":1024,"n":256},"fc_mapping":[4,4,1],"seed":6}`,
	} {
		post := func() {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/simulate", strings.NewReader(body)))
			if rec.Code != 200 {
				t.Fatalf("%s row: HTTP %d: %s", name, rec.Code, rec.Body)
			}
		}
		post() // cold: simulate once and fill the memory tier
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			post()
		}
		runtime.ReadMemStats(&after)
		if perReq := (after.TotalAlloc - before.TotalAlloc) / runs; perReq >= 64<<10 {
			t.Errorf("memory-warm /simulate of the %s row allocates %d B per request, want < 64 KiB", name, perReq)
		} else {
			t.Logf("%s row: %d B per warm request", name, perReq)
		}
	}
}

// TestSeededMemoryHitAllocBound pins what naming a seeded job costs on a
// memory hit: a named job (Job.WithOperands) is keyed by one hash of its
// spec, so a warm hit on the benchmark's standard conv row builds no
// operand and allocates no more than the spec → key memo's hit did when
// every lazy job had to be keyed by content (10 allocations and 9 792 B per
// hit, almost all of it the caller's copy of the 64×6×6 output).
func TestSeededMemoryHitAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is inflated under -race")
	}
	d := tensor.ConvDims{N: 1, C: 64, H: 6, W: 6, K: 64, R: 3, S: 3, PadH: 1, PadW: 1}
	builds := 0
	job := farm.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Conv2D, Dims: d,
		ConvMapping: mapping.Basic(), Seed: 41}
	job = job.WithOperands("bifrost-test/seeded-uniform/v1", func() (*tensor.Tensor, *tensor.Tensor) {
		builds++
		return tensor.RandomUniform(41, 1, 1, 64, 6, 6), tensor.RandomUniform(141, 1, 64, 64, 3, 3)
	})
	f := NewFarm(1)
	defer f.Close()
	hit := func() {
		if res, err := f.Do(job); err != nil || !res.Hit {
			t.Fatalf("hit %v, err %v", res.Hit, err)
		}
	}
	if _, err := f.Do(job); err != nil {
		t.Fatal(err)
	}
	hit()
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / runs
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if builds != 1 || allocs > 10 || bytes > 9792 {
		t.Errorf("%d operand builds, %d allocations and %d B per memory hit; want 1 build (the miss), ≤ 10 and ≤ 9792 B",
			builds, allocs, bytes)
	} else {
		t.Logf("%d allocations, %d B per memory hit", allocs, bytes)
	}
}
