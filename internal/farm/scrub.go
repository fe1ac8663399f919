package farm

import (
	"sync"
	"sync/atomic"
	"time"
)

// Scrubber is the low-priority background integrity pass over the local
// result tier: every interval it walks the store's keys, re-verifies each
// entry's CRC frame, deletes what fails (the store counts it Corrupt), and
// — when a repair source is configured — pulls a replica's copy back into
// the freed slot. At-rest corruption (bit rot, torn writes from a crash,
// fsck truncation) is found and healed before a request ever reads the bad
// frame, turning what would be a recompute into a replica fetch.
type Scrubber struct {
	store  LocalTier
	repair func(key string) (Result, bool) // replica fetch; nil = delete only

	// pace bounds the scan rate (keys per second) so a pass over a large
	// store never competes with live traffic for disk bandwidth.
	pace time.Duration

	scanned  atomic.Int64
	corrupt  atomic.Int64
	repaired atomic.Int64
	passes   atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// scrubPaceKeysPerSecond is the fixed scan rate: deliberately slow — a
// 10k-entry store is fully verified in well under a scrub interval while
// the pass stays invisible next to request traffic.
const scrubPaceKeysPerSecond = 512

// NewScrubber starts a scrubber over store, running one pass every
// interval. repair, when non-nil, is consulted for every corrupt entry
// (typically ReplicatedStore.GetRemote) and its answer written back to the
// local tier only — a repaired copy must not fan back out to the replicas
// it just came from. Stop it with Stop; an interval <= 0 disables the
// ticker (passes then run only via RunPass, the test seam).
func NewScrubber(store LocalTier, interval time.Duration, repair func(key string) (Result, bool)) *Scrubber {
	s := &Scrubber{
		store:  store,
		repair: repair,
		pace:   time.Second / scrubPaceKeysPerSecond,
		stop:   make(chan struct{}),
	}
	if interval > 0 {
		s.wg.Add(1)
		go s.loop(interval)
	}
	return s
}

func (s *Scrubber) loop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.RunPass()
		}
	}
}

// RunPass walks the store once, verifying every entry. Corrupt entries are
// already deleted by the store's Scrub; a configured repair source refills
// the slot from a replica. Returns how many entries were scanned. Safe to
// call concurrently with live traffic (and, harmlessly, with the ticker).
func (s *Scrubber) RunPass() int {
	n := 0
	s.store.Keys(func(key string) bool {
		select {
		case <-s.stop:
			return false
		default:
		}
		n++
		s.scanned.Add(1)
		switch s.store.Scrub(key) {
		case ScrubCorrupt:
			s.corrupt.Add(1)
			if s.repair != nil {
				if res, ok := s.repair(key); ok {
					s.store.Put(key, res)
					s.repaired.Add(1)
				}
			}
		case ScrubMissing, ScrubOK:
		}
		if s.pace > 0 {
			select {
			case <-s.stop:
				return false
			case <-time.After(s.pace):
			}
		}
		return true
	})
	s.passes.Add(1)
	return n
}

// ScrubStats is the scrubber's counter snapshot for /metrics.
type ScrubStats struct {
	Scanned  int64 // entries verified across all passes
	Corrupt  int64 // entries that failed verification (deleted)
	Repaired int64 // corrupt entries refilled from a replica
	Passes   int64 // completed passes
}

// Stats snapshots the scrubber's counters.
func (s *Scrubber) Stats() ScrubStats {
	return ScrubStats{
		Scanned:  s.scanned.Load(),
		Corrupt:  s.corrupt.Load(),
		Repaired: s.repaired.Load(),
		Passes:   s.passes.Load(),
	}
}

// Stop halts the ticker and any pass in flight, then waits for them.
func (s *Scrubber) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}
