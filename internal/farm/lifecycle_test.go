package farm_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// TestShutdownGracefulDrain proves the clean path: Shutdown with a generous
// deadline lets every accepted job finish, returns nil, and the farm then
// refuses new work with the ErrFarmClosed sentinel.
func TestShutdownGracefulDrain(t *testing.T) {
	fm := farm.New(2)
	const n = 16
	waits := make([]func() (farm.Result, error), n)
	for i := range waits {
		waits[i] = farmtest.Start(context.Background(), fm, dryJob(6000+i))
	}
	waitUntil(t, "every job to be accepted", func() bool {
		st := fm.Stats()
		return st.Pending+st.Completed == n
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fm.Shutdown(ctx); err != nil {
		t.Fatalf("graceful Shutdown: %v", err)
	}
	for i, wait := range waits {
		if _, err := wait(); err != nil {
			t.Errorf("job %d accepted before Shutdown failed: %v", i, err)
		}
	}
	if _, err := fm.Do(dryJob(6100)); !errors.Is(err, farm.ErrFarmClosed) {
		t.Errorf("submit after Shutdown: err = %v, want ErrFarmClosed", err)
	}
}

// TestShutdownDeadlineReleasesWaiters proves a drain that cannot finish in
// time still terminates: queued jobs are abandoned, their waiters are
// released with ErrFarmClosed instead of hanging forever, and Shutdown
// reports the unclean drain via ctx's error.
func TestShutdownDeadlineReleasesWaiters(t *testing.T) {
	fm := farm.New(1)
	release := make(chan struct{})
	started := make(chan struct{})
	pinned := farmtest.Start(context.Background(), fm, dryJob(6200).WithFaultHook(func() { close(started); <-release }))
	<-started

	const queued = 4
	waits := make([]func() (farm.Result, error), queued)
	for i := range waits {
		waits[i] = farmtest.Start(context.Background(), fm, dryJob(6201+i))
	}
	waitUntil(t, "jobs to queue behind the pinned worker", func() bool { return fm.Stats().Queued == queued })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- fm.Shutdown(ctx) }()

	// The deadline fires while the worker is pinned: every queued waiter
	// must come back with ErrFarmClosed, not hang.
	for i, wait := range waits {
		if _, err := wait(); !errors.Is(err, farm.ErrFarmClosed) {
			t.Errorf("abandoned job %d: err = %v, want ErrFarmClosed", i, err)
		}
	}

	// The execution already on the worker runs to completion once released.
	close(release)
	if _, err := pinned(); err != nil {
		t.Errorf("pinned job failed: %v", err)
	}
	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown error = %v, want context.DeadlineExceeded", err)
	}
	st := fm.Stats()
	if st.Cancelled != queued {
		t.Errorf("Stats.Cancelled = %d, want %d", st.Cancelled, queued)
	}
	if st.Completed != 1 {
		t.Errorf("Stats.Completed = %d, want 1 (the pinned job)", st.Completed)
	}
}

// TestShutdownAndCloseIdempotent proves every ordering of Close and
// Shutdown terminates: each is individually idempotent and they compose in
// either order without double-closing the cache tiers or deadlocking.
func TestShutdownAndCloseIdempotent(t *testing.T) {
	ctx := context.Background()

	fm := farm.New(2)
	if _, err := fm.Do(dryJob(6300)); err != nil {
		t.Fatal(err)
	}
	fm.Close()
	fm.Close()
	if err := fm.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after Close: %v", err)
	}

	fm2 := farm.New(2)
	if err := fm2.Shutdown(ctx); err != nil {
		t.Errorf("first Shutdown: %v", err)
	}
	if err := fm2.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
	fm2.Close()

	if _, err := fm2.Do(dryJob(6301)); !errors.Is(err, farm.ErrFarmClosed) {
		t.Errorf("submit after Shutdown+Close: err = %v, want ErrFarmClosed", err)
	}
}

// TestShutdownDoCtxAlreadyCancelled proves a dead context never touches the
// queue: DoCtx returns the context's error at once.
func TestShutdownDoCtxAlreadyCancelled(t *testing.T) {
	fm := farm.New(1)
	defer fm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fm.DoCtx(ctx, dryJob(6400)); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled DoCtx: err = %v, want context.Canceled", err)
	}
	st := fm.Stats()
	if st.Queued != 0 || st.Pending != 0 {
		t.Errorf("pre-cancelled submission reached the scheduler: %+v", st)
	}
	if st.Cancelled != 1 {
		t.Errorf("Stats.Cancelled = %d, want 1", st.Cancelled)
	}
}

// TestShutdownReplicatedTierLeavesNoGoroutines pins that the durable tier
// has no background path: NewReplicatedStore starts no goroutine, and Put
// (local write plus replica fan-out), Get (local tier only) and Close leave
// none behind.
func TestShutdownReplicatedTierLeavesNoGoroutines(t *testing.T) {
	farmtest.NoGoroutineLeak(t)
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	local := farm.NewRetryStore(ds, farmtest.TestRetryPolicy())
	a, b := farm.NewMemoryStore(0, 0), farm.NewMemoryStore(0, 0)
	before := runtime.NumGoroutine()
	rs := farm.NewReplicatedStore(local, "self", 2, []farm.ReplicaMember{
		{Name: "a", Store: farm.NewRetryStore(a, farmtest.TestRetryPolicy())},
		{Name: "b", Store: farm.NewRetryStore(b, farm.RetryPolicy{})},
	})
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewReplicatedStore started %d goroutine(s)", n-before)
	}

	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	for i := 0; i < 32; i++ {
		rs.Put(key(i), farm.Result{})
		if _, ok := rs.Get(key(i)); !ok {
			t.Fatalf("key %d missing from the local tier after Put", i)
		}
	}
	if st := rs.ReplicaStats(); st.Writes < 32 || st.Failures != 0 {
		t.Fatalf("replica stats %+v, want >= 32 writes (R=2: at least one remote owner per key), 0 failures", st)
	}
	if err := rs.Close(); err != nil {
		t.Fatalf("closing the replicated store: %v", err)
	}
}
