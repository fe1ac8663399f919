package farm_test

import (
	"errors"
	"sync"
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
// plain Submit keeps shedding load at the bound while a worker is wedged,
// so interactive traffic still gets its fast ErrQueueFull.
func TestSubmitStillFailsFastAtBound(t *testing.T) {
	release := make(chan struct{})
	fm := farm.New(1, farm.WithMaxQueue(1))
	defer fm.Close()
	defer close(release)

	// Wedge the single worker, then fill the one queue slot.
	blocked := fm.Submit(dryJob(0).WithFaultHook(func() { <-release }))
	waitForBusy(t, fm)
	queued := fm.Submit(dryJob(1))

	rejected := fm.Submit(dryJob(2))
	if _, err := rejected.Wait(); !errors.Is(err, farm.ErrQueueFull) {
		t.Fatalf("submit over the bound: err = %v, want ErrQueueFull", err)
	}
	_ = blocked
	_ = queued
}

// TestSubmitWaitReleasedByClose proves a SubmitWait blocked on a full queue
// does not hang a closing farm: it is released with ErrFarmClosed.
func TestSubmitWaitReleasedByClose(t *testing.T) {
	release := make(chan struct{})
	fm := farm.New(1, farm.WithMaxQueue(1))

	fm.Submit(dryJob(0).WithFaultHook(func() { <-release }))
	waitForBusy(t, fm)
	fm.Submit(dryJob(1)) // fills the queue

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := fm.SubmitWait(dryJob(2)).Wait()
		errc <- err
	}()
	// Let the goroutine reach the qspace wait, then close underneath it.
	time.Sleep(20 * time.Millisecond)
	go fm.Close()
	close(release)
	wg.Wait()
	if err := <-errc; err != nil && !errors.Is(err, farm.ErrFarmClosed) {
		t.Fatalf("blocked SubmitWait after Close: err = %v, want nil or ErrFarmClosed", err)
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
