package tensor_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/farm/farmtest"
	"repro/internal/tensor"
)

// TestParallelForBudget has 8 goroutines split loops at once at
// GOMAXPROCS=2: the process-wide budget must never let more than one helper
// run, every index must still run exactly once, and every helper must be
// gone when the callers are.
func TestParallelForBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	farmtest.NoGoroutineLeak(t)
	tensor.ResetHelperPeak()
	before := tensor.HelperLaunches()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				seen := make([]atomic.Int32, 64)
				tensor.ParallelFor(len(seen), 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[i].Add(1)
					}
					runtime.Gosched() // let the other callers contend for the budget
				})
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if peak := tensor.HelperPeak(); peak > 1 {
		t.Errorf("%d helpers ran at once at GOMAXPROCS=2, want at most 1", peak)
	}
	if tensor.HelperLaunches() == before {
		t.Error("no helper was started: the budget was never contended")
	}
}

// TestParallelForNestedSerial calls ParallelFor from inside a split loop's
// chunks while the outer helper still holds the only token GOMAXPROCS=2
// allows: the inner loops must run serially, one call over the whole range.
func TestParallelForNestedSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var entered, left sync.WaitGroup
	entered.Add(2)
	left.Add(2)
	tensor.ParallelFor(2, 1, func(lo, hi int) {
		if hi-lo != 1 {
			t.Error("the outer loop did not split")
			return
		}
		// The helper holds its token from the first barrier to the second,
		// so both nested loops run while the budget is spent.
		entered.Done()
		entered.Wait()
		defer func() { left.Done(); left.Wait() }()
		var calls atomic.Int32
		tensor.ParallelFor(100, 1, func(lo, hi int) {
			calls.Add(1)
			if lo != 0 || hi != 100 {
				t.Errorf("nested loop split: chunk [%d, %d)", lo, hi)
			}
		})
		if c := calls.Load(); c != 1 {
			t.Errorf("nested loop ran in %d chunks, want 1", c)
		}
	})
}
