package farm

import (
	"math/rand"
	"sync"
	"time"
)

// Breaker is the one peer/tier health state machine: a consecutive-failure
// trip into quarantine, then one real operation admitted per probe interval
// until a success closes it again. The disk tier's and every replica
// member's RetryStore and the coordinator's per-peer dispatch all use it
// the same way — Admit before touching the tier, Success or Failure after
// — so an open breaker always keeps probing and a recovered tier always
// rejoins; the coordinator's /healthz probes feed the same breaker. A
// Breaker is safe for concurrent use.
type Breaker struct {
	tripAfter  int
	probeEvery time.Duration
	jitter     float64

	// now and rand are the clock/randomness seams the fault-injection tests
	// use to drive breaker timing deterministically; production uses the
	// real ones.
	now  func() time.Time
	rand func() float64

	mu        sync.Mutex
	failures  int       // consecutive failed operations
	open      bool      // open = quarantined
	nextProbe time.Time // earliest moment an open breaker admits a probe
	trips     int64
}

// NewBreaker returns a closed breaker using the policy's TripAfter (at least
// 1), ProbeEvery (1s when non-positive) and Jitter (clamped to [0, 1]); the
// retry fields belong to RetryStore.
func NewBreaker(policy RetryPolicy) *Breaker {
	b := &Breaker{
		tripAfter:  max(policy.TripAfter, 1),
		probeEvery: policy.ProbeEvery,
		jitter:     min(max(policy.Jitter, 0), 1),
		now:        time.Now,
		rand:       rand.Float64,
	}
	if b.probeEvery <= 0 {
		b.probeEvery = time.Second
	}
	return b
}

// Admit reports whether an operation may touch the guarded tier right now:
// always when the breaker is closed, and once per probe interval when open.
// An admitted operation must be followed by Success or Failure.
func (b *Breaker) Admit() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if now := b.now(); !now.Before(b.nextProbe) {
		b.nextProbe = now.Add(b.jittered(b.probeEvery)) // claim this probe slot
		return true
	}
	return false
}

// Success records a successful operation (including a successful probe),
// closing the breaker and resetting the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.failures = 0
	b.open = false
	b.mu.Unlock()
}

// Failure records a failed operation, tripping the breaker once the streak
// reaches the threshold; a failed probe re-arms the probe timer.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures >= b.tripAfter && !b.open {
		b.open = true
		b.trips++
	}
	if b.open {
		b.nextProbe = b.now().Add(b.jittered(b.probeEvery))
	}
}

// Open reports whether the breaker is open — a reading for gauges and
// readiness, never a traffic gate: only Admit lets the probe through
// that can close it again.
func (b *Breaker) Open() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// Trips counts the times the breaker opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// jittered spreads d by a random factor in [1-jitter, 1+jitter]. With
// jitter 0 it returns d unchanged and never consults the randomness source.
func (b *Breaker) jittered(d time.Duration) time.Duration {
	if b.jitter <= 0 || d <= 0 {
		return d
	}
	f := 1 + b.jitter*(2*b.rand()-1)
	return time.Duration(float64(d) * f)
}
