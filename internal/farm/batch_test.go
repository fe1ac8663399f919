package farm_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// TestDoBatchLargerThanQueueBound is the regression test for the batch
// backpressure bug: DoBatch used to submit every job before waiting, so with
// WithMaxQueue(n) any batch larger than n fast-failed its tail with
// ErrQueueFull even though the caller was blocked and ready to wait. DoBatch
// now submits at queue pace — a 64-job batch through a queue bounded at 4
// must complete with zero rejections.
func TestDoBatchLargerThanQueueBound(t *testing.T) {
	const bound, batch = 4, 64
	fm := farm.New(2, farm.WithMaxQueue(bound))
	defer fm.Close()

	jobs := make([]farm.Job, batch)
	for i := range jobs {
		jobs[i] = dryJob(i) // distinct keys: no dedup, every job queues
	}
	results := farmtest.DoBatch(t, "DoBatch over a bounded queue", fm, jobs)
	if len(results) != batch {
		t.Fatalf("got %d results, want %d", len(results), batch)
	}
	for i, res := range results {
		if res.Stats.Cycles <= 0 {
			t.Errorf("job %d: no cycles in result %+v", i, res.Stats)
		}
	}
	st := fm.Stats()
	if st.Rejected != 0 {
		t.Errorf("DoBatch manufactured %d ErrQueueFull rejections (stats: %+v)", st.Rejected, st)
	}
	if st.Completed != batch {
		t.Errorf("completed %d executions, want %d", st.Completed, batch)
	}
}

// TestSubmitStillFailsFastAtBound pins the other half of the contract:
// plain Do keeps shedding load at the bound while a worker is wedged, so
// interactive traffic still gets its fast ErrQueueFull.
func TestSubmitStillFailsFastAtBound(t *testing.T) {
	release := make(chan struct{})
	fm := farm.New(1, farm.WithMaxQueue(1))
	defer fm.Close()
	defer close(release)

	// Wedge the single worker, then fill the one queue slot.
	go fm.Do(dryJob(0).WithFaultHook(func() { <-release }))
	waitForBusy(t, fm)
	go fm.Do(dryJob(1))
	waitUntil(t, "the queue to fill", func() bool { return fm.Stats().Queued == 1 })

	if _, err := fm.Do(dryJob(2)); !errors.Is(err, farm.ErrQueueFull) {
		t.Fatalf("submit over the bound: err = %v, want ErrQueueFull", err)
	}
}

// TestDoBatchReleasedByClose proves a DoBatch blocked on a full queue does
// not hang a closing farm: it is released with ErrFarmClosed.
func TestDoBatchReleasedByClose(t *testing.T) {
	release := make(chan struct{})
	fm := farm.New(1, farm.WithMaxQueue(1))

	go fm.Do(dryJob(0).WithFaultHook(func() { <-release }))
	waitForBusy(t, fm)
	go fm.Do(dryJob(1)) // fills the queue
	waitUntil(t, "the queue to fill", func() bool { return fm.Stats().Queued == 1 })

	errc := make(chan error, 1)
	go func() {
		_, errs := fm.DoBatch([]farm.Job{dryJob(2)})
		errc <- errs[0]
	}()
	// The batch's job is counted before it waits for a queue slot; close
	// underneath it.
	waitUntil(t, "the batch to submit", func() bool { return fm.Stats().Submitted == 3 })
	go fm.Close()
	close(release)
	if err := <-errc; err != nil && !errors.Is(err, farm.ErrFarmClosed) {
		t.Fatalf("blocked DoBatch after Close: err = %v, want nil or ErrFarmClosed", err)
	}
}

// waitForBusy spins until the farm reports a busy worker, so tests can
// deterministically wedge the pool before filling the queue.
func waitForBusy(t *testing.T, fm *farm.Farm) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fm.Stats().BusyWorkers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedged job")
		}
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkDoBatchHalfHits times one 16-job dry-run batch of which half are
// memory hits and half are fresh keys, the shape of a tuner's batch late in
// a search. -benchmem reports the batch's scheduling allocations.
func BenchmarkDoBatchHalfHits(b *testing.B) {
	fm := farm.New(2)
	defer fm.Close()
	const batch = 16
	jobs := make([]farm.Job, batch)
	for i := 0; i < batch/2; i++ {
		jobs[i] = dryJob(i)
	}
	farmtest.DoBatch(b, "warm", fm, jobs[:batch/2])
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := batch / 2; i < batch; i++ {
			jobs[i] = dryJob(i)
			jobs[i].Seed = int64(n*batch + i)
		}
		if _, errs := fm.DoBatch(jobs); errs[batch-1] != nil {
			b.Fatal(errs[batch-1])
		}
	}
}
