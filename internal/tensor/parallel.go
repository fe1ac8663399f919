package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the one fork/join under the arithmetic. A loop whose output
// elements each have exactly one writer — conv output rows, GEMM row bands
// and column panels, dense neuron quads, LRN channels, pooling planes — is
// split across the cores that are idle at that moment, and only when each
// piece is big enough to repay the hand-off. Nothing about the arithmetic
// changes: every element keeps its accumulation chain and its one writer,
// so outputs are bitwise identical however the loop was split.
//
// Helpers come from one process-wide budget of GOMAXPROCS−1 tokens, taken
// without waiting: a loop that finds them all held — by a loop it is nested
// in, or by another session's or farm job's loop running alongside — runs
// serially on the calling goroutine. The extra goroutines ParallelFor ever
// runs at once therefore stay within GOMAXPROCS−1 across the process.

// ChunkWork is the least work, in multiply-accumulate equivalents, that a
// chunk must carry before ParallelFor hands it to a helper. One vector MAC
// costs about 0.1 ns, so a chunk is at least ≈ 0.1 ms — two orders of
// magnitude above what starting a helper and joining it cost. Kernels
// express per-item costs in this unit (a transcendental or a scalar
// compare-and-branch counts as several MACs), and Grain turns them into
// chunk sizes.
const ChunkWork = 1 << 20

// maxHelpers caps the budget whatever GOMAXPROCS says; it sizes the
// hand-off channel, which must hold every loop handed to a helper that has
// not started yet.
const maxHelpers = 256

// handoff carries a loop from its caller to each helper it started; any
// helper may serve any loop, since every caller sends exactly one loop per
// helper it starts.
var handoff = make(chan *loop, maxHelpers)

// helpers is the process-wide budget and its bookkeeping.
var helpers struct {
	busy     atomic.Int32 // tokens held: helpers started and not yet finished
	peak     atomic.Int32 // high-water mark of busy
	launched atomic.Int64 // helpers ever started
}

// loop is one ParallelFor call's shared state, recycled through loopPool so
// a split loop allocates nothing beyond the caller's closure.
type loop struct {
	fn       func(lo, hi int)
	n, size  int
	next     atomic.Int64
	wg       sync.WaitGroup
	panicked atomic.Pointer[any]
}

var loopPool = sync.Pool{New: func() any { return new(loop) }}

// HelperLaunches reports how many helper goroutines ParallelFor has started
// since the process began: tests read it to prove that a loop was split.
func HelperLaunches() int64 { return helpers.launched.Load() }

// Grain returns the chunk size, in items, for a loop over n items of `work`
// MAC-equivalents each, run by at most `workers` goroutines counting the
// caller (≤ 0: as many as the budget has). Every chunk then carries at
// least ChunkWork. Grain returns n — run the loop serially — when two such
// chunks do not fit, when workers is 1, or when no helper is free right
// now. Callers test grain < n before they build the closure ParallelFor
// takes, so the serial path allocates nothing.
func Grain(n, work, workers int) int {
	if workers == 1 || n < 2 {
		return n
	}
	g := (ChunkWork + max(work, 1) - 1) / max(work, 1)
	if workers > 1 {
		g = max(g, (n+workers-1)/workers)
	}
	if g > n/2 || helperLimit() <= helpers.busy.Load() {
		return n
	}
	return g
}

// ParallelFor calls fn over [0, n) in chunks of about grain items, each
// index exactly once, and returns when every chunk has finished. The caller
// always works through chunks itself; it also starts up to n/grain − 1
// helpers from the process-wide budget, without waiting for any: when none
// is free, or the loop has fewer than two chunks, fn(0, n) runs on the
// caller alone. Chunks are claimed in ascending order by whichever
// goroutine is free, so fn must give each index range its own outputs. A
// panic in fn on a helper is re-raised on the caller once every chunk has
// finished.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	chunks := n / max(grain, 1)
	h := takeHelpers(chunks - 1)
	if h == 0 {
		fn(0, n)
		return
	}
	l := loopPool.Get().(*loop)
	l.fn, l.n, l.size = fn, n, (n+chunks-1)/chunks
	l.next.Store(0)
	l.wg.Add(h)
	for range h {
		helpers.launched.Add(1)
		go helper()
		handoff <- l
	}
	l.run()
	l.wg.Wait()
	p := l.panicked.Swap(nil)
	l.fn = nil
	loopPool.Put(l)
	if p != nil {
		panic(*p)
	}
}

// run claims and computes chunks until none is left.
func (l *loop) run() {
	for {
		lo := int(l.next.Add(int64(l.size))) - l.size
		if lo >= l.n {
			return
		}
		l.fn(lo, min(lo+l.size, l.n))
	}
}

// helper serves one loop from the hand-off channel and returns its token.
func helper() {
	l := <-handoff
	defer l.wg.Done()
	defer helpers.busy.Add(-1)
	defer func() {
		if r := recover(); r != nil {
			p := r // escapes; declared here so only a panic allocates
			l.panicked.CompareAndSwap(nil, &p)
		}
	}()
	l.run()
}

// helperLimit is the size of the budget: GOMAXPROCS−1 tokens, since the
// caller is always one of the goroutines computing.
func helperLimit() int32 {
	return int32(min(runtime.GOMAXPROCS(0)-1, maxHelpers))
}

// takeHelpers takes up to want tokens from the budget without waiting and
// returns how many it got.
func takeHelpers(want int) int {
	if want <= 0 {
		return 0
	}
	limit := helperLimit()
	for {
		busy := helpers.busy.Load()
		got := min(int32(min(want, maxHelpers)), limit-busy)
		if got <= 0 {
			return 0
		}
		if helpers.busy.CompareAndSwap(busy, busy+got) {
			for p := helpers.peak.Load(); busy+got > p; p = helpers.peak.Load() {
				if helpers.peak.CompareAndSwap(p, busy+got) {
					break
				}
			}
			return int(got)
		}
	}
}
