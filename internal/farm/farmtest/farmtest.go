// Package farmtest is the differential test harness for the simulation
// farm's result path: it runs one deterministic table of Conv2D and Dense
// jobs several ways — fresh inline execution, a warm in-memory cache, a
// warm disk cache replayed by a cold farm after Close, pack-cache and
// pooling-bypassed reruns, and a fully traced pass — and asserts the
// results are byte-identical everywhere. The farm, serve and core test
// suites all reuse it, so any drift between the execution path and either
// cache tier (a lossy codec, a stale format, a broken promotion), or any
// observability feature that leaks into results or keys, fails in three
// places at once.
package farmtest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// DoBatch runs jobs on fm and fails tb at the first job that failed,
// naming the pass.
func DoBatch(tb testing.TB, pass string, fm *farm.Farm, jobs []farm.Job) []farm.Result {
	tb.Helper()
	results, errs := fm.DoBatch(jobs)
	for i, err := range errs {
		if err != nil {
			tb.Fatalf("%s: job %d: %v", pass, i, err)
		}
	}
	return results
}

// Jobs returns a deterministic table of small simulation jobs spanning the
// three architectures, both conv layouts, basic and tiled mappings, SIGMA
// sparsity (with pre-pruned weights, mirroring core and serve) and the
// counters-only dry-run mode. Every job is fully seeded, so the table is
// identical across processes — which is what lets a cold process check
// itself against a warm directory written by another.
func Jobs() []farm.Job {
	conv := func(ct config.ControllerType, layout tensor.Layout, m mapping.ConvMapping, seed int64) farm.Job {
		cfg := config.Default(ct)
		d := tensor.ConvDims{N: 1, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3}
		in := tensor.RandomUniform(seed, 1, 1, 2, 8, 8)
		if layout == tensor.NHWC {
			in = tensor.RandomUniform(seed, 1, 1, 8, 8, 2)
		}
		w := tensor.RandomUniform(seed+100, 1, 4, 2, 3, 3)
		if layout == tensor.NHWC {
			w = tensor.RandomUniform(seed+100, 1, 3, 3, 2, 4)
		}
		if ct == config.SIGMASparseGEMM {
			cfg.SparsityRatio = 50
			tensor.Prune(w, 0.5)
		}
		return farm.Job{HW: cfg, Kind: farm.Conv2D, Layout: layout, Dims: d,
			ConvMapping: m, Input: in, Weights: w, Seed: seed}
	}
	dense := func(ct config.ControllerType, m mapping.FCMapping, seed int64) farm.Job {
		cfg := config.Default(ct)
		w := tensor.RandomUniform(seed+100, 1, 8, 16)
		if ct == config.SIGMASparseGEMM {
			cfg.SparsityRatio = 50
			tensor.Prune(w, 0.5)
		}
		return farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: m,
			Input: tensor.RandomUniform(seed, 1, 2, 16), Weights: w, Seed: seed}
	}
	tiled := mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1}
	return []farm.Job{
		conv(config.MAERIDenseWorkload, tensor.NCHW, mapping.Basic(), 11),
		conv(config.MAERIDenseWorkload, tensor.NCHW, tiled, 12),
		conv(config.MAERIDenseWorkload, tensor.NHWC, tiled, 13),
		conv(config.SIGMASparseGEMM, tensor.NCHW, mapping.Basic(), 14),
		conv(config.TPUOSDense, tensor.NCHW, mapping.Basic(), 15),
		dense(config.MAERIDenseWorkload, mapping.BasicFC(), 21),
		dense(config.MAERIDenseWorkload, mapping.FCMapping{TS: 4, TK: 2, TN: 1}, 22),
		dense(config.SIGMASparseGEMM, mapping.BasicFC(), 23),
		dense(config.TPUOSDense, mapping.BasicFC(), 24),
		// Counters-only measurement jobs (the AutoTVM cycles target).
		{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Conv2D, DryRun: true,
			Dims:        tensor.ConvDims{N: 1, C: 4, H: 10, W: 10, K: 8, R: 3, S: 3},
			ConvMapping: tiled},
		{HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
			M: 1, K: 32, N: 16, FCMapping: mapping.FCMapping{TS: 8, TK: 4, TN: 1}},
	}
}

// RunFresh executes every job inline on the calling goroutine (farm.Run) —
// no farm, no cache — producing the reference results the cached paths are
// compared against. Jobs run the default fused fast path: analytic counters
// plus fast arithmetic, never a step loop.
func RunFresh(tb testing.TB, jobs []farm.Job) []farm.Result {
	tb.Helper()
	results := make([]farm.Result, len(jobs))
	for i, j := range jobs {
		res, err := farm.Run(j)
		if err != nil {
			tb.Fatalf("fresh run of job %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

// RunReference executes every job inline with Job.Reference set, which is
// how anything reaches the oracle package: the step-loop / cycle-ticked
// simulations and, for GEMM-lowered convolutions, the materialised im2col
// lowering. This is the ground truth the production engines — and every
// cache tier replaying their results — must match byte for byte.
func RunReference(tb testing.TB, jobs []farm.Job) []farm.Result {
	tb.Helper()
	results := make([]farm.Result, len(jobs))
	for i, j := range jobs {
		j.Reference = true
		res, err := farm.Run(j)
		if err != nil {
			tb.Fatalf("reference run of job %d: %v", i, err)
		}
		results[i] = res
	}
	return results
}

// DiffResults reports the first byte-level difference between two results'
// payloads — the simulation counters and the output tensor. The Hit and Key
// fields are transport state (which submission path produced the result)
// and are deliberately not compared.
func DiffResults(a, b farm.Result) error {
	if a.Stats != b.Stats {
		return fmt.Errorf("stats differ:\n  a: %+v\n  b: %+v", a.Stats, b.Stats)
	}
	if (a.Out == nil) != (b.Out == nil) {
		return fmt.Errorf("one result has an output tensor, the other does not (a: %v, b: %v)", a.Out != nil, b.Out != nil)
	}
	if a.Out == nil {
		return nil
	}
	if !tensor.ShapeEq(a.Out.Shape(), b.Out.Shape()) {
		return fmt.Errorf("output shapes differ: %v vs %v", a.Out.Shape(), b.Out.Shape())
	}
	ad, bd := a.Out.Data(), b.Out.Data()
	for i := range ad {
		if math.Float32bits(ad[i]) != math.Float32bits(bd[i]) {
			return fmt.Errorf("output element %d differs: %v (%08x) vs %v (%08x)",
				i, ad[i], math.Float32bits(ad[i]), bd[i], math.Float32bits(bd[i]))
		}
	}
	return nil
}

// AssertSameResults fails unless got matches want element-wise,
// byte-identically. context names the path under test in failures.
func AssertSameResults(tb testing.TB, context string, want, got []farm.Result) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s: %d results, want %d", context, len(got), len(want))
	}
	for i := range want {
		if err := DiffResults(want[i], got[i]); err != nil {
			tb.Errorf("%s: job %d: %v", context, i, err)
		}
	}
}

// AssertEquivalent is the harness entry point: it proves the four result
// paths agree byte-for-byte on the given jobs.
//
//  1. reference — every job inline through the oracle package's step-loop /
//     cycle-ticked simulations (Job.Reference), the ground truth;
//  2. fresh — every job inline through farm.Run's default fused fast path;
//  3. warm memory — the same jobs twice through one farm, the second pass
//     required to be served entirely from the in-memory tier;
//  4. warm disk — a farm with a disk tier populates a directory and is
//     Closed; a second, cold farm on the same directory must replay every
//     job with zero simulator executions (disk hits only, no misses).
//
// Because paths 3 and 4 replay results computed by the fused path and are
// compared against path 1, the harness proves warm-cache replays of
// fused-path results byte-identical to step-loop results.
func AssertEquivalent(tb testing.TB, jobs []farm.Job) {
	tb.Helper()
	want := RunFresh(tb, jobs)
	AssertSameResults(tb, "fused fresh run vs step-loop reference", RunReference(tb, jobs), want)

	// Path 2: warm in-memory cache.
	fm := farm.New(4)
	first := DoBatch(tb, "in-memory first pass", fm, jobs)
	second := DoBatch(tb, "in-memory warm pass", fm, jobs)
	fm.Close()
	AssertSameResults(tb, "in-memory first pass vs fresh", want, first)
	AssertSameResults(tb, "in-memory warm pass vs fresh", want, second)
	for i, res := range second {
		if !res.Hit {
			tb.Errorf("in-memory warm pass: job %d was not a cache hit", i)
		}
	}

	// Path 3: warm disk cache replayed by a cold farm.
	dir := tb.TempDir()
	openFarm := func() *farm.Farm {
		ds, err := farm.NewDiskStore(dir, 0)
		if err != nil {
			tb.Fatalf("opening disk store: %v", err)
		}
		return farm.New(4, farm.WithDiskStore(ds))
	}
	warm := openFarm()
	populated := DoBatch(tb, "populating disk cache", warm, jobs)
	warm.Close()
	AssertSameResults(tb, "disk populate pass vs fresh", want, populated)

	cold := openFarm()
	defer cold.Close()
	replayed := DoBatch(tb, "cold disk replay", cold, jobs)
	AssertSameResults(tb, "cold disk replay vs fresh", want, replayed)
	for i, res := range replayed {
		if !res.Hit {
			tb.Errorf("cold disk replay: job %d was not a cache hit", i)
		}
	}
	st := cold.Stats()
	if st.Misses != 0 || st.Completed != 0 {
		tb.Errorf("cold disk replay ran simulations: %+v", st)
	}
	if st.DiskHits != int64(len(jobs)) {
		tb.Errorf("cold disk replay: disk hits = %d, want %d (stats: %+v)", st.DiskHits, len(jobs), st)
	}
	if st.Disk == nil || st.Disk.Hits != int64(len(jobs)) {
		tb.Errorf("cold disk replay: disk tier stats did not record the hits: %+v", st.Disk)
	}

	// Path 5: pack-cache reuse and arena pooling (PR 5). One shared
	// content-keyed cache, the jobs run twice inline — the first pass packs
	// and publishes every derived operand form, the second reuses them —
	// and once more with the tensor arenas bypassed. All three must match
	// the fresh (uncached, pooled-default) results byte-for-byte, and the
	// pack cache must never leak into the content-addressed job keys.
	pc := tensor.NewPackCache(0, 0)
	runPacked := func(context string) []farm.Result {
		results := make([]farm.Result, len(jobs))
		for i, j := range jobs {
			res, err := farm.Run(j.WithPackCache(pc))
			if err != nil {
				tb.Fatalf("%s: job %d: %v", context, i, err)
			}
			results[i] = res
		}
		return results
	}
	AssertSameResults(tb, "pack-cache cold pass vs fresh", want, runPacked("pack-cache cold pass"))
	AssertSameResults(tb, "pack-cache warm pass vs fresh", want, runPacked("pack-cache warm pass"))
	if pst := pc.Stats(); pst.Puts == 0 {
		tb.Errorf("pack cache was never populated across the job table: %+v", pst)
	}
	for i, j := range jobs {
		plain, err1 := j.Key()
		packed, err2 := j.WithPackCache(pc).Key()
		if err1 != nil || err2 != nil || plain != packed {
			tb.Errorf("job %d: pack cache leaked into the key: %q (err %v) vs %q (err %v)",
				i, plain, err1, packed, err2)
		}
	}

	prev := tensor.SetPooling(false)
	defer tensor.SetPooling(prev) // restore even when RunFresh fails the test
	unpooled := RunFresh(tb, jobs)
	AssertSameResults(tb, "pooling-bypassed run vs pooled fresh", want, unpooled)

	// Path 6: lifecycle tracing is observation only (PR 6). The same jobs
	// with Job.Trace set — through a traced farm feeding a trace ring — must
	// produce byte-identical results under the same content-addressed keys,
	// with every execution's trace captured.
	plainKeys := make([]string, len(jobs))
	for i, j := range jobs {
		k, err := j.Key()
		if err != nil {
			tb.Fatalf("keying job %d: %v", i, err)
		}
		plainKeys[i] = k
	}
	ring := telemetry.NewTraceRing(2 * len(jobs))
	traced := farm.New(4, farm.WithTraceRing(ring))
	defer traced.Close()
	tjobs := make([]farm.Job, len(jobs))
	for i, j := range jobs {
		j.Trace = true
		tjobs[i] = j
	}
	tracedResults := DoBatch(tb, "traced pass", traced, tjobs)
	AssertSameResults(tb, "traced pass vs fresh", want, tracedResults)
	for i, res := range tracedResults {
		if res.Key != plainKeys[i] {
			tb.Errorf("job %d: tracing changed the key: %q vs %q", i, res.Key, plainKeys[i])
		}
		if res.Trace == nil {
			tb.Errorf("traced pass: job %d returned no trace", i)
		} else if res.Trace.Key != res.Key {
			tb.Errorf("job %d: trace key %q != result key %q", i, res.Trace.Key, res.Key)
		}
	}
	if got := ring.Total(); got != uint64(len(jobs)) {
		tb.Errorf("trace ring recorded %d traces, want %d", got, len(jobs))
	}
}
