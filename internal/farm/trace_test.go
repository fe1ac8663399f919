package farm

import (
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// traceTestJob returns a small dry-run job (counters only, fast) with the
// Trace flag as given.
func traceTestJob(trace bool) Job {
	d := tensor.ConvDims{N: 1, C: 4, H: 10, W: 10, K: 8, R: 3, S: 3}
	return Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D, DryRun: true,
		Dims:        d,
		ConvMapping: mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: 2, TG: 1, TN: 1, TX: 1, TY: 1},
		Trace:       trace,
	}
}

// TestTraceFlagExcludedFromKey pins the contract that tracing is
// observation only: traced and untraced submissions of the same job share
// one cache entry.
func TestTraceFlagExcludedFromKey(t *testing.T) {
	plain, err := traceTestJob(false).Key()
	if err != nil {
		t.Fatal(err)
	}
	traced, err := traceTestJob(true).Key()
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("Trace flag leaked into the key: %q vs %q", plain, traced)
	}
}

// TestJobTraceLifecycle runs the same job fresh, warm and deduped and
// checks the trace each path reports: source, key, phase presence, and
// that untraced submissions carry no trace at all.
func TestJobTraceLifecycle(t *testing.T) {
	ring := telemetry.NewTraceRing(16)
	f := New(2, WithTraceRing(ring))
	defer f.Close()

	// Fresh execution: the trace must come from the compute path with a
	// compute phase recorded.
	res, err := f.Do(traceTestJob(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("traced fresh run returned no trace")
	}
	if res.Trace.Source != "compute" {
		t.Errorf("fresh trace source = %q, want compute", res.Trace.Source)
	}
	if res.Trace.Key != res.Key {
		t.Errorf("trace key %q != result key %q", res.Trace.Key, res.Key)
	}
	if res.Trace.ComputeMS <= 0 {
		t.Errorf("fresh trace compute phase = %v ms, want > 0", res.Trace.ComputeMS)
	}
	if res.Trace.TotalMS < res.Trace.ComputeMS {
		t.Errorf("total %v ms < compute %v ms", res.Trace.TotalMS, res.Trace.ComputeMS)
	}

	// Warm memory hit: source memory, with the lookup phase stamped.
	res2, err := f.Do(traceTestJob(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit {
		t.Fatal("second submission missed the cache")
	}
	if res2.Trace == nil || res2.Trace.Source != "memory" {
		t.Fatalf("warm trace = %+v, want source memory", res2.Trace)
	}
	if res2.Trace.ComputeMS != 0 {
		t.Errorf("memory hit reported compute time %v ms", res2.Trace.ComputeMS)
	}

	// Untraced submission: no trace in the result even though the farm has
	// a ring (the ring records executions; memory hits stay traceless).
	res3, err := f.Do(traceTestJob(false))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Trace != nil {
		t.Errorf("untraced submission carried a trace: %+v", res3.Trace)
	}

	// The ring saw the execution and the traced hit, newest first.
	snap := ring.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d traces, want 2 (execution + traced hit): %+v", len(snap), snap)
	}
	if snap[0].Source != "memory" || snap[1].Source != "compute" {
		t.Errorf("ring order = %q,%q, want memory,compute", snap[0].Source, snap[1].Source)
	}
}

// TestTraceDiskHit checks that a cold farm replaying a warm disk directory
// reports disk-sourced traces with a disk-lookup phase.
func TestTraceDiskHit(t *testing.T) {
	dir := t.TempDir()
	open := func() *Farm {
		ds, err := NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(2, WithDiskStore(ds))
	}
	warm := open()
	if _, err := warm.Do(traceTestJob(false)); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	cold := open()
	defer cold.Close()
	res, err := cold.Do(traceTestJob(true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("cold replay was not a hit")
	}
	if res.Trace == nil || res.Trace.Source != "disk" {
		t.Fatalf("cold replay trace = %+v, want source disk", res.Trace)
	}
	if res.Trace.DiskLookupMS <= 0 {
		t.Errorf("disk hit has no disk-lookup phase: %+v", res.Trace)
	}
	if res.Trace.PersistMS <= 0 {
		t.Errorf("disk hit did not record the memory promotion as persist: %+v", res.Trace)
	}
}

// TestTraceNotCached proves traces are per-submission transport state: a
// stored result never carries the trace of the submission that computed it.
func TestTraceNotCached(t *testing.T) {
	f := New(1)
	defer f.Close()
	if _, err := f.Do(traceTestJob(true)); err != nil {
		t.Fatal(err)
	}
	// An untraced warm submission must see a trace-free result even though
	// the populating submission was traced.
	res, err := f.Do(traceTestJob(false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatalf("cached result leaked the populating submission's trace: %+v", res.Trace)
	}
}

// TestStatsSchedulerGauges checks the new scheduler fields and Limits.
func TestStatsSchedulerGauges(t *testing.T) {
	ds, err := NewDiskStore(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	f := New(3, WithMaxEntries(10), WithMaxBytes(1<<20), WithDiskStore(ds))
	defer f.Close()
	if _, err := f.Do(traceTestJob(false)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.BusyWorkers != 0 || st.Queued != 0 {
		t.Errorf("idle farm reports busy=%d queued=%d", st.BusyWorkers, st.Queued)
	}
	l := f.Limits()
	if l.Workers != 3 || l.MemMaxEntries != 10 || l.MemMaxBytes != 1<<20 {
		t.Errorf("limits = %+v", l)
	}
	if !l.Disk || l.DiskMaxBytes != 1<<20 || l.DiskDir == "" {
		t.Errorf("disk limits = %+v", l)
	}
	if r := st.Memory.HitRatio(); r != 0 {
		t.Errorf("memory hit ratio after a single miss = %v, want 0", r)
	}
	// Over a disk tier the computed row waits on disk: the second Do is a
	// disk hit, which promotes it, and the third a memory hit.
	if _, err := f.Do(traceTestJob(false)); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.DiskHits != 1 || st.Memory.Hits != 0 {
		t.Errorf("second Do: disk hits %d, memory hits %d; want 1 and 0", st.DiskHits, st.Memory.Hits)
	}
	if res, err := f.Do(traceTestJob(false)); err != nil || !res.Hit {
		t.Fatalf("third Do: hit=%v err=%v", res.Hit, err)
	}
	// A submission that misses memory probes it twice (optimistic Get plus
	// the under-lock re-check), so two misses and one hit is 1 hit in 5
	// lookups.
	if st := f.Stats(); st.DiskHits != 1 || st.Memory.HitRatio() != 1.0/5 {
		t.Errorf("third Do: disk hits %d, memory hit ratio %v; want 1 and 1/5", st.DiskHits, st.Memory.HitRatio())
	}
}

// TestPhaseSummaries checks the process-wide rollup accessor exposes every
// phase.
func TestPhaseSummaries(t *testing.T) {
	f := New(1)
	defer f.Close()
	if _, err := f.Do(traceTestJob(false)); err != nil {
		t.Fatal(err)
	}
	sums := PhaseSummaries()
	for _, phase := range []string{"enqueue_wait", "dedup", "mem_lookup", "disk_lookup", "compute", "persist"} {
		if _, ok := sums[phase]; !ok {
			t.Errorf("phase %q missing from summaries", phase)
		}
	}
	if sums["compute"].Count == 0 {
		t.Error("compute phase never observed despite an executed job")
	}
}
