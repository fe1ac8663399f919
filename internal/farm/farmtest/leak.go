package farmtest

import (
	"runtime"
	"testing"
	"time"
)

// NoGoroutineLeak records the goroutine count now and registers a cleanup
// asserting the count is back: whatever the test starts must be gone once
// its owners are closed. Call it first, so the check runs after every other
// cleanup; goroutines exit asynchronously after a Close, so it retries for
// a bounded time before failing with a stack dump.
func NoGoroutineLeak(tb testing.TB) {
	tb.Helper()
	before := runtime.NumGoroutine()
	tb.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				tb.Errorf("%d goroutines at the start, %d after every Close:\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}
