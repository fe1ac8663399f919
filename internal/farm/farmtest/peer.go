package farmtest

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
)

// FaultTransport injects network faults at the http.RoundTripper level —
// beneath the peer store, above the real transport — so the chaos suites
// exercise exactly what a flaky network does to the write-only peer wire:
// requests that never arrive, frames corrupted in flight, and latency
// spikes. Same policy shape and seeded-PRNG determinism as FaultStore.
//
// An ErrRate draw fails the round trip with ErrInjected (the peer never
// hears the request). A CorruptRate draw flips a byte in the request body
// and lets the exchange happen — the receiver's CRC check must refuse the
// frame with 422, never store wrong bytes.
type FaultTransport struct {
	inner http.RoundTripper

	mu     sync.Mutex
	policy FaultPolicy
	rng    *rand.Rand

	injected  int64
	corrupted int64
}

// NewFaultTransport wraps inner (nil selects http.DefaultTransport) with
// policy.
func NewFaultTransport(inner http.RoundTripper, policy FaultPolicy) *FaultTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &FaultTransport{
		inner:  inner,
		policy: policy,
		rng:    rand.New(rand.NewSource(policy.Seed)),
	}
}

// SetPolicy swaps the fault policy — a zero policy "repairs the network".
func (ft *FaultTransport) SetPolicy(p FaultPolicy) {
	ft.mu.Lock()
	ft.policy = p
	ft.rng = rand.New(rand.NewSource(p.Seed))
	ft.mu.Unlock()
}

// Injected reports how many round trips failed and how many request bodies
// were corrupted in flight.
func (ft *FaultTransport) Injected() (failed, corrupted int64) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.injected, ft.corrupted
}

// RoundTrip implements http.RoundTripper with faults injected.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	p := ft.policy
	fail := p.ErrRate > 0 && ft.rng.Float64() < p.ErrRate
	corrupt := !fail && p.CorruptRate > 0 && ft.rng.Float64() < p.CorruptRate
	if fail {
		ft.injected++
	}
	ft.mu.Unlock()

	if p.Latency > 0 {
		time.Sleep(p.Latency)
	}
	if fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, ErrInjected
	}
	if !corrupt || req.Body == nil {
		return ft.inner.RoundTrip(req)
	}
	// Corrupt the request in flight: read the body, flip one byte in the
	// middle (inside a frame's CRC-covered payload), send the damaged copy.
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 20 {
		body[len(body)/2] ^= 0x20
		ft.mu.Lock()
		ft.corrupted++
		ft.mu.Unlock()
	}
	req = req.Clone(req.Context())
	req.Body, req.GetBody = io.NopCloser(bytes.NewReader(body)), nil
	req.ContentLength = int64(len(body))
	return ft.inner.RoundTrip(req)
}

// AssertPeerFaultTolerant proves the distributed analogue of
// AssertFaultTolerant: a replica peer misbehaving at the network level
// costs retries, quarantine and dropped replicas — never wrong bytes, in
// the results or in the peer's cache.
//
// It deploys the peer the way bifrost-serve does: a PeerStore behind
// NewRetryStore, as the one remote member of a ReplicatedStore at R = 2, so
// every result the farm computes is written to it over a network that
// misbehaves per policy. It runs the standard job table twice, asserts both
// passes byte-identical to fresh inline execution, and asserts the backing
// peer holds no entry that differs from fresh. A corrupt frame must be
// refused by the receiver's CRC check; a total outage must trip the
// member's breaker.
func AssertPeerFaultTolerant(tb testing.TB, policy FaultPolicy) {
	tb.Helper()
	jobs := Jobs()
	want := RunFresh(tb, jobs)

	backing := farm.New(2)
	defer backing.Close()
	srv := httptest.NewServer(farm.PeerHandler(backing))
	defer srv.Close()

	ft := NewFaultTransport(nil, policy)
	member := farm.NewRetryStore(farm.NewPeerStore(srv.URL, farm.WithPeerHTTPClient(&http.Client{
		Transport: ft,
		Timeout:   10 * time.Second,
	})), TestRetryPolicy())
	ds, err := farm.NewDiskStore(tb.TempDir(), 0)
	if err != nil {
		tb.Fatalf("opening disk store: %v", err)
	}
	repl := farm.NewReplicatedStore(ds, "self", 2, []farm.ReplicaMember{{Name: "peer", Store: member}})
	fm := farm.New(4, farm.WithDiskStore(repl))
	defer fm.Close()

	first, err := fm.DoBatch(jobs)
	if err != nil {
		tb.Fatalf("peer-faulted first pass (policy %+v): %v", policy, err)
	}
	AssertSameResults(tb, "peer-faulted first pass vs fresh", want, first)

	second, err := fm.DoBatch(jobs)
	if err != nil {
		tb.Fatalf("peer-faulted second pass (policy %+v): %v", policy, err)
	}
	AssertSameResults(tb, "peer-faulted second pass vs fresh", want, second)

	st := member.Stats()
	failed, corrupted := ft.Injected()
	if policy.ErrRate > 0 && failed == 0 {
		tb.Errorf("policy %+v injected no network faults over %d jobs", policy, len(jobs))
	}
	// Only a pure-corruption policy reliably reaches the receiver: when
	// errors are mixed in, the breaker may quarantine the member before any
	// write rolls corrupt.
	if policy.CorruptRate > 0 && policy.ErrRate == 0 && (corrupted == 0 || st.Corrupt != corrupted) {
		tb.Errorf("policy %+v corrupted %d frames, the receiver refused %d", policy, corrupted, st.Corrupt)
	}
	if policy.ErrRate >= 1 && st.Trips == 0 {
		tb.Errorf("total network outage never tripped the member's breaker: %+v", st)
	}
	// Whatever the network did, the backing peer must never have been
	// poisoned: every entry it holds is byte-identical to fresh.
	held := 0
	for i, j := range jobs {
		key, err := j.Key()
		if err != nil {
			tb.Fatalf("job %d key: %v", i, err)
		}
		if res, ok := backing.CacheGet(key); ok {
			held++
			if err := DiffResults(want[i], res); err != nil {
				tb.Errorf("backing peer's entry for job %d diverged: %v", i, err)
			}
		}
	}
	if int64(held) != st.Puts {
		tb.Errorf("backing peer holds %d entries, the member reports %d successful writes", held, st.Puts)
	}
}
