package farm

import (
	"errors"
	"sync/atomic"
	"time"
)

// ErrStoreQuarantined is returned by GetErr/PutErr when the breaker is open
// and this operation was not admitted as a probe. Callers composing replicas
// can distinguish "tier is quarantined right now" from an operation that ran
// and failed.
var ErrStoreQuarantined = errors.New("farm: store quarantined by breaker")

// RetryPolicy configures a RetryStore: how hard it retries a transiently
// failing operation, and when repeated failure quarantines the tier.
type RetryPolicy struct {
	// MaxRetries is how many times a failed Get or Put is re-attempted
	// beyond the first try. 0 disables retries (the breaker still works).
	MaxRetries int

	// BaseDelay is the back-off before the first retry; each further retry
	// doubles it, capped at MaxDelay. A non-positive BaseDelay retries
	// immediately.
	BaseDelay time.Duration
	MaxDelay  time.Duration

	// TripAfter is how many consecutive operations must exhaust their
	// retries before the health breaker opens and quarantines the tier;
	// values < 1 trip on the first such failure.
	TripAfter int

	// ProbeEvery is how often an open breaker lets one real operation
	// through to probe the tier. A successful probe closes the breaker; a
	// failed one re-arms the timer. Non-positive values use 1s.
	ProbeEvery time.Duration

	// Jitter spreads backoff delays and probe timing by a random factor in
	// [1-Jitter, 1+Jitter], so a fleet of nodes whose breakers tripped
	// together doesn't retry or probe a recovering disk/peer in lockstep.
	// 0 disables jitter (deterministic timing, which the tests rely on);
	// values are clamped to [0, 1].
	Jitter float64
}

// DefaultRetryPolicy returns the policy bifrost-serve uses for its disk
// tier: a few quick retries (transient errors on a local filesystem either
// clear in milliseconds or not at all), a breaker that trips after three
// consecutively failed operations, and a probe every two seconds.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries: 2,
		BaseDelay:  2 * time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
		TripAfter:  3,
		ProbeEvery: 2 * time.Second,
		Jitter:     0.2,
	}
}

// RetryStore wraps a Store (typically a *DiskStore or a *PeerStore) with
// transient fault tolerance:
//
//   - A failed Get or Put is retried with bounded exponential back-off —
//     a brief I/O hiccup costs latency, never a recomputed or lost result.
//   - A tier that keeps failing is quarantined by its Breaker: after
//     TripAfter consecutive exhausted operations the store goes degraded,
//     answering every Get with an instant miss and dropping every Put, so a
//     dying disk cannot stall the farm's workers. The farm keeps producing
//     byte-identical results from its memory tier and fresh simulation.
//   - While degraded, one operation per ProbeEvery interval is let through
//     as a probe; the first success closes the breaker and the tier
//     resumes normal service, re-populated by the write-through traffic.
//
// A wrapped store that cannot report failure never trips the breaker, so
// the wrapper is a plain pass-through for it. RetryStore is itself a
// LocalTier: the wrapped tier's walkable view passes through behind the
// breaker (see tier).
type RetryStore struct {
	inner   LocalTier     // the wrapped store's local-tier view, resolved once
	fal     FallibleStore // its error-surfacing half, resolved once
	policy  RetryPolicy
	breaker *Breaker

	// sleep is the back-off seam of the fault-injection tests (the clock and
	// randomness seams live on the breaker); production uses time.Sleep.
	sleep   func(time.Duration)
	retries atomic.Int64
}

// NewRetryStore wraps inner with policy. The wrapper owns inner: closing
// the RetryStore closes it.
func NewRetryStore(inner Store, policy RetryPolicy) *RetryStore {
	return &RetryStore{
		inner:   asLocalTier(inner),
		fal:     asFallible(inner),
		policy:  policy,
		breaker: NewBreaker(policy),
		sleep:   time.Sleep,
	}
}

// backoff returns the delay before retry attempt (0-based), doubling from
// BaseDelay, capped at MaxDelay, spread by the policy's jitter.
func (rs *RetryStore) backoff(attempt int) time.Duration {
	d := rs.policy.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if rs.policy.MaxDelay > 0 && d >= rs.policy.MaxDelay {
			d = rs.policy.MaxDelay
			break
		}
	}
	if rs.policy.MaxDelay > 0 && d > rs.policy.MaxDelay {
		d = rs.policy.MaxDelay
	}
	return rs.breaker.jittered(d)
}

// Degraded reports whether the breaker is open — the tier is quarantined
// and the farm is running memory-only.
func (rs *RetryStore) Degraded() bool { return rs.breaker.Open() }

// do runs one operation through the breaker gate and the retry loop: a
// quarantined tier answers ErrStoreQuarantined without touching the wrapped
// store, and an operation that exhausts its retries answers the last
// underlying error — the taxonomy composing tiers rely on (the replicated
// store counts per-replica failures and skips quarantined members).
func (rs *RetryStore) do(op func() error) error {
	if !rs.breaker.Admit() {
		return ErrStoreQuarantined
	}
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			rs.breaker.Success()
			return nil
		}
		if attempt >= rs.policy.MaxRetries {
			rs.breaker.Failure()
			return err
		}
		rs.retries.Add(1)
		rs.sleep(rs.backoff(attempt))
	}
}

// Get implements Store. A quarantined tier answers an instant miss; a
// clean miss (the key genuinely is not stored) counts as a healthy
// operation and closes an open breaker, because the tier proved it can
// answer.
func (rs *RetryStore) Get(key string) (Result, bool) {
	res, ok, _ := rs.GetErr(key)
	return res, ok
}

// GetErr implements FallibleStore, exposing what Get absorbs; see do.
func (rs *RetryStore) GetErr(key string) (res Result, ok bool, err error) {
	err = rs.do(func() (e error) { res, ok, e = rs.fal.GetErr(key); return e })
	if err != nil {
		return Result{}, false, err
	}
	return res, ok, nil
}

// Put implements Store. A quarantined tier drops the write; through
// PutErr the farm sees ErrStoreQuarantined and admits the result to its
// memory tier instead, so it stays correct there and is re-persisted by
// later traffic once the disk recovers.
func (rs *RetryStore) Put(key string, res Result) { rs.PutErr(key, res) }

// PutErr implements FallibleStore, exposing what Put absorbs; see do.
func (rs *RetryStore) PutErr(key string, res Result) error {
	return rs.do(func() error { return rs.fal.PutErr(key, res) })
}

// Stats implements Store: the wrapped tier's counters annotated with the
// wrapper's retry, trip and quarantine state.
func (rs *RetryStore) Stats() StoreStats {
	st := rs.inner.Stats()
	st.Retries = rs.retries.Load()
	st.Trips = rs.breaker.Trips()
	st.Degraded = rs.breaker.Open()
	return st
}

// Close implements Store, closing the wrapped tier.
func (rs *RetryStore) Close() error { return rs.inner.Close() }

// Dir and MaxBytes complete the LocalTier view: the wrapped tier's.
func (rs *RetryStore) Dir() string     { return rs.inner.Dir() }
func (rs *RetryStore) MaxBytes() int64 { return rs.inner.MaxBytes() }
