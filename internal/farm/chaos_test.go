package farm_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/telemetry"
)

// dryJob returns a cheap counters-only job with a content key unique to n,
// so queue-behaviour tests control exactly which submissions dedup.
func dryJob(n int) farm.Job {
	return farm.Job{
		HW: config.Default(config.MAERIDenseWorkload), Kind: farm.Dense, DryRun: true,
		M: 1, K: 32, N: 8 + n, FCMapping: mapping.BasicFC(),
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(tb testing.TB, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosDiskFaultRates is the acceptance sweep: a disk tier failing 25%,
// 50% or 100% of its operations — with corruption and latency mixed in —
// must cost only retries and recomputation, never a byte of the results.
func TestChaosDiskFaultRates(t *testing.T) {
	cases := []struct {
		name   string
		policy farmtest.FaultPolicy
	}{
		{"quarter", farmtest.FaultPolicy{ErrRate: 0.25, Seed: 1}},
		{"half_with_corruption", farmtest.FaultPolicy{ErrRate: 0.5, CorruptRate: 0.25, Seed: 2}},
		{"slow_corrupt_reads", farmtest.FaultPolicy{CorruptRate: 0.5, Latency: 200 * time.Microsecond, Seed: 3}},
		{"total_outage", farmtest.FaultPolicy{ErrRate: 1, Seed: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			farmtest.AssertFaultTolerant(t, tc.policy)
		})
	}
}

// TestChaosDiskQuarantineRecovery drives the breaker's full cycle: a total
// disk outage trips it (the farm goes degraded but keeps answering
// correctly), and once the injection stops, a probe closes it and the disk
// tier resumes serving hits.
func TestChaosDiskQuarantineRecovery(t *testing.T) {
	jobs := farmtest.Jobs()
	want := farmtest.RunFresh(t, jobs)

	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fs := farmtest.NewFaultStore(ds, farmtest.FaultPolicy{ErrRate: 1, Seed: 7})
	rs := farm.NewRetryStore(fs, farmtest.TestRetryPolicy())
	fm := farm.New(4, farm.WithDiskStore(rs))
	defer fm.Close()

	broken := farmtest.DoBatch(t, "sweep during outage", fm, jobs)
	farmtest.AssertSameResults(t, "sweep during outage vs fresh", want, broken)
	st := fm.Stats()
	if st.Disk == nil || !st.Disk.Degraded {
		t.Fatalf("total outage did not quarantine the disk tier: %+v", st.Disk)
	}
	if st.Disk.Trips == 0 {
		t.Errorf("breaker never recorded a trip: %+v", st.Disk)
	}

	// Repair the disk. The next admitted probe closes the breaker; keep
	// poking the tier until one is admitted (ProbeEvery spacing).
	fs.SetPolicy(farmtest.FaultPolicy{})
	waitUntil(t, "breaker to close after repair", func() bool {
		rs.Get(strings.Repeat("0", 64)) // any well-formed key probes health
		return !rs.Degraded()
	})

	// Recovered: fresh submissions persist again, and a cold farm sharing
	// the directory replays them from disk — proof the tier really is back.
	extra := dryJob(1001)
	if _, err := fm.Do(extra); err != nil {
		t.Fatalf("post-recovery job: %v", err)
	}
	waitUntil(t, "post-recovery result to land on disk", func() bool {
		return ds.Stats().Puts > 0
	})

	key, err := extra.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(key); !ok {
		t.Errorf("post-recovery result never reached the repaired disk tier")
	}
	if st := fm.Stats(); st.Disk.Degraded {
		t.Errorf("farm still reports a degraded disk tier after recovery: %+v", st.Disk)
	}
}

// TestFaultPanicIsolation proves one poisoned job cannot take down the
// farm: a simulator panic is recovered into that job's own *PanicError —
// stack attached, counter bumped, trace annotated — while every other job
// of the sweep completes byte-identically and the process survives.
func TestFaultPanicIsolation(t *testing.T) {
	ring := telemetry.NewTraceRing(64)
	fm := farm.New(2, farm.WithTraceRing(ring))
	defer fm.Close()

	bad := dryJob(2001).WithFaultHook(func() { panic("injected chaos panic") })
	_, err := fm.Do(bad)
	if err == nil {
		t.Fatal("panicking job returned no error")
	}
	var pe *farm.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job failed with %T, want *farm.PanicError: %v", err, err)
	}
	if pe.Value != "injected chaos panic" {
		t.Errorf("panic value = %v, want the injected one", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "chaos_test") {
		t.Errorf("panic stack does not reach the injection site:\n%s", pe.Stack)
	}

	// The farm (and its workers) survived: a healthy sweep still runs.
	jobs := farmtest.Jobs()
	want := farmtest.RunFresh(t, jobs)
	got := farmtest.DoBatch(t, "healthy sweep after panic", fm, jobs)
	farmtest.AssertSameResults(t, "sweep after panic vs fresh", want, got)

	st := fm.Stats()
	if st.Panics != 1 {
		t.Errorf("Stats.Panics = %d, want 1", st.Panics)
	}
	if st.Failed != 1 {
		t.Errorf("Stats.Failed = %d, want 1 (only the poisoned job)", st.Failed)
	}

	var panicTrace *telemetry.Trace
	for _, tr := range ring.Snapshot() {
		if tr.Source == "panic" {
			panicTrace = tr
			break
		}
	}
	if panicTrace == nil {
		t.Fatal("no trace with source \"panic\" recorded")
	}
	if !strings.Contains(panicTrace.Error, "injected chaos panic") {
		t.Errorf("panic trace error %q does not carry the panic message", panicTrace.Error)
	}
}

// TestFaultCancellationFreesQueuedJobs proves a disconnected client's jobs
// stop consuming the farm: with the only worker pinned, cancelling the
// waiters of queued jobs removes them from the queue before any worker
// picks them up, and the pinned job's eventual completion is unaffected.
func TestFaultCancellationFreesQueuedJobs(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	blocker := dryJob(3000).WithFaultHook(func() { close(started); <-release })
	blockerFut := fm.Submit(blocker)
	<-started // the single worker is now pinned

	ctx, cancel := context.WithCancel(context.Background())
	const queued = 8
	futures := make([]*farm.Future, queued)
	for i := 0; i < queued; i++ {
		futures[i] = fm.SubmitCtx(ctx, dryJob(3001+i))
	}
	waitUntil(t, "jobs to queue behind the pinned worker", func() bool {
		return fm.Stats().Queued == queued
	})

	cancel()
	for i, fut := range futures {
		if _, err := fut.WaitCtx(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("queued job %d: err = %v, want context.Canceled", i, err)
		}
	}
	waitUntil(t, "cancelled jobs to leave the queue", func() bool {
		return fm.Stats().Queued == 0
	})
	st := fm.Stats()
	if st.Cancelled != queued {
		t.Errorf("Stats.Cancelled = %d, want %d", st.Cancelled, queued)
	}

	close(release)
	if _, err := blockerFut.Wait(); err != nil {
		t.Errorf("pinned job failed: %v", err)
	}
	// Nothing cancelled ever executed.
	if st := fm.Stats(); st.Completed != 1 {
		t.Errorf("Stats.Completed = %d, want 1 (the pinned job only)", st.Completed)
	}
}

// TestFaultDeadlineExpiresQueuedJob proves Job.Deadline bounds queue time:
// a job stuck behind a pinned worker past its deadline is removed and fails
// with context.DeadlineExceeded without ever executing — and the deadline,
// like every fault-tolerance knob, stays out of the content key.
func TestFaultDeadlineExpiresQueuedJob(t *testing.T) {
	plain := dryJob(4000)
	deadlined := plain
	deadlined.Deadline = 5 * time.Millisecond
	pk, err1 := plain.Key()
	dk, err2 := deadlined.Key()
	if err1 != nil || err2 != nil || pk != dk {
		t.Fatalf("Deadline leaked into the content key: %q (err %v) vs %q (err %v)", pk, err1, dk, err2)
	}

	fm := farm.New(1)
	defer fm.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	fm.Submit(dryJob(4001).WithFaultHook(func() { close(started); <-release }))
	<-started

	fut := fm.Submit(deadlined)
	time.Sleep(10 * time.Millisecond) // let the deadline lapse while queued
	close(release)
	if _, err := fut.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired job: err = %v, want context.DeadlineExceeded", err)
	}
	st := fm.Stats()
	if st.Cancelled != 1 {
		t.Errorf("Stats.Cancelled = %d, want 1", st.Cancelled)
	}
	if st.Completed != 1 {
		t.Errorf("Stats.Completed = %d, want 1 (the pinned job only)", st.Completed)
	}
}

// TestChaosBackpressureQueueBound proves WithMaxQueue fails fast: at the
// bound, Submit rejects with ErrQueueFull without enqueuing, and once the
// queue drains the farm accepts work again.
func TestChaosBackpressureQueueBound(t *testing.T) {
	const bound = 2
	fm := farm.New(1, farm.WithMaxQueue(bound))
	defer fm.Close()

	release := make(chan struct{})
	started := make(chan struct{})
	fm.Submit(dryJob(5000).WithFaultHook(func() { close(started); <-release }))
	<-started

	accepted := make([]*farm.Future, bound)
	for i := 0; i < bound; i++ {
		accepted[i] = fm.Submit(dryJob(5001 + i))
	}
	waitUntil(t, "queue to fill to its bound", func() bool {
		return fm.Stats().Queued == bound
	})

	if _, err := fm.Submit(dryJob(5100)).Wait(); !errors.Is(err, farm.ErrQueueFull) {
		t.Errorf("submit over the bound: err = %v, want ErrQueueFull", err)
	}
	st := fm.Stats()
	if st.Rejected != 1 {
		t.Errorf("Stats.Rejected = %d, want 1", st.Rejected)
	}
	if st.Queued != bound {
		t.Errorf("rejected submission changed the queue: depth %d, want %d", st.Queued, bound)
	}
	if fm.Limits().MaxQueue != bound {
		t.Errorf("Limits.MaxQueue = %d, want %d", fm.Limits().MaxQueue, bound)
	}

	// Drain, then verify the farm accepts and executes again.
	close(release)
	for i, fut := range accepted {
		if _, err := fut.Wait(); err != nil {
			t.Errorf("bounded-queue job %d failed: %v", i, err)
		}
	}
	if _, err := fm.Do(dryJob(5200)); err != nil {
		t.Errorf("submit after drain: %v", err)
	}
}
