package farmtest

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/farm"
)

// ErrInjected is the error every injected fault surfaces, so tests can tell
// deliberate failures from real ones with errors.Is.
var ErrInjected = errors.New("farmtest: injected fault")

// FaultPolicy says how a FaultStore misbehaves. Rates are probabilities in
// [0, 1] drawn from a seeded PRNG, so a chaos run is reproducible: the same
// policy over the same operation sequence injects the same faults.
type FaultPolicy struct {
	// ErrRate is the probability that an operation fails with ErrInjected
	// (a read before touching the store, a write instead of persisting).
	// 1.0 makes the tier completely unavailable.
	ErrRate float64
	// CorruptRate is the probability that a read is answered as a miss even
	// though the entry may exist — the caller-visible effect of a corrupt
	// frame, which the disk tier drops and reports as a clean miss. The
	// farm must recompute and still produce byte-identical results.
	CorruptRate float64
	// Latency is added to every operation that reaches the store, modelling
	// a slow or contended device.
	Latency time.Duration
	// Seed seeds the injection PRNG (0 is a valid, fixed seed).
	Seed int64
}

// FaultStore wraps a result-cache tier with deterministic fault injection:
// errors, dropped reads and latency, governed by a FaultPolicy that can be
// swapped at runtime (SetPolicy) to model a disk that fails and then
// recovers. It implements both the plain Store contract and the
// error-surfacing FallibleStore one, so it can stand in for a *DiskStore
// under a RetryStore and drive the breaker's trip/probe cycle.
type FaultStore struct {
	inner farm.Store
	fal   farm.FallibleStore // nil if inner cannot surface errors

	mu     sync.Mutex
	policy FaultPolicy
	rng    *rand.Rand

	injectedGets int64
	injectedPuts int64
	dropped      int64
}

// NewFaultStore wraps inner with policy. The wrapper owns inner: closing
// the FaultStore closes it.
func NewFaultStore(inner farm.Store, policy FaultPolicy) *FaultStore {
	fal, _ := inner.(farm.FallibleStore)
	return &FaultStore{
		inner:  inner,
		fal:    fal,
		policy: policy,
		rng:    rand.New(rand.NewSource(policy.Seed)),
	}
}

// SetPolicy swaps the fault policy — set a zero policy to "repair the
// disk" and watch the farm recover.
func (fs *FaultStore) SetPolicy(p FaultPolicy) {
	fs.mu.Lock()
	fs.policy = p
	fs.rng = rand.New(rand.NewSource(p.Seed))
	fs.mu.Unlock()
}

// Injected reports how many faults were injected: failed gets, failed puts
// and reads answered as artificial misses.
func (fs *FaultStore) Injected() (gets, puts, dropped int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injectedGets, fs.injectedPuts, fs.dropped
}

// roll decides one operation's fate under the current policy.
func (fs *FaultStore) roll(isGet bool) (fail, drop bool, latency time.Duration) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p := fs.policy
	if p.ErrRate > 0 && fs.rng.Float64() < p.ErrRate {
		if isGet {
			fs.injectedGets++
		} else {
			fs.injectedPuts++
		}
		return true, false, p.Latency
	}
	if isGet && p.CorruptRate > 0 && fs.rng.Float64() < p.CorruptRate {
		fs.dropped++
		return false, true, p.Latency
	}
	return false, false, p.Latency
}

// GetErr implements farm.FallibleStore with faults injected.
func (fs *FaultStore) GetErr(key string) (farm.Result, bool, error) {
	fail, drop, latency := fs.roll(true)
	if latency > 0 {
		time.Sleep(latency)
	}
	if fail {
		return farm.Result{}, false, ErrInjected
	}
	if drop {
		return farm.Result{}, false, nil
	}
	if fs.fal != nil {
		return fs.fal.GetErr(key)
	}
	res, ok := fs.inner.Get(key)
	return res, ok, nil
}

// PutErr implements farm.FallibleStore with faults injected.
func (fs *FaultStore) PutErr(key string, res farm.Result) error {
	fail, _, latency := fs.roll(false)
	if latency > 0 {
		time.Sleep(latency)
	}
	if fail {
		return ErrInjected
	}
	if fs.fal != nil {
		return fs.fal.PutErr(key, res)
	}
	fs.inner.Put(key, res)
	return nil
}

// Get implements farm.Store: an injected fault reads as a miss.
func (fs *FaultStore) Get(key string) (farm.Result, bool) {
	res, ok, _ := fs.GetErr(key)
	return res, ok
}

// Put implements farm.Store: an injected fault drops the write.
func (fs *FaultStore) Put(key string, res farm.Result) { fs.PutErr(key, res) }

// Stats implements farm.Store.
func (fs *FaultStore) Stats() farm.StoreStats { return fs.inner.Stats() }

// Close implements farm.Store.
func (fs *FaultStore) Close() error { return fs.inner.Close() }
