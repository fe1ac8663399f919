package farm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// scriptedStore is a FallibleStore whose next failures are scripted, so
// retry and breaker behaviour is tested without a real filesystem.
type scriptedStore struct {
	mu      sync.Mutex
	failGet int // fail this many upcoming GetErr calls
	failPut int
	gets    int
	puts    int
	data    map[string]Result
}

var errScripted = errors.New("scripted failure")

func newScriptedStore() *scriptedStore { return &scriptedStore{data: make(map[string]Result)} }

func (s *scriptedStore) GetErr(key string) (Result, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	if s.failGet > 0 {
		s.failGet--
		return Result{}, false, errScripted
	}
	res, ok := s.data[key]
	return res, ok, nil
}

func (s *scriptedStore) PutErr(key string, res Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.failPut > 0 {
		s.failPut--
		return errScripted
	}
	s.data[key] = res
	return nil
}

func (s *scriptedStore) Get(key string) (Result, bool) { res, ok, _ := s.GetErr(key); return res, ok }
func (s *scriptedStore) Put(key string, res Result)    { s.PutErr(key, res) }
func (s *scriptedStore) Stats() StoreStats             { return StoreStats{} }
func (s *scriptedStore) Close() error                  { return nil }

func (s *scriptedStore) script(failGet, failPut int) {
	s.mu.Lock()
	s.failGet, s.failPut = failGet, failPut
	s.mu.Unlock()
}

func (s *scriptedStore) counts() (gets, puts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets, s.puts
}

// testClockStore returns a RetryStore over a scripted inner store with a
// manual clock and recorded (not slept) back-off delays.
func testClockStore(policy RetryPolicy) (*RetryStore, *scriptedStore, *time.Time, *[]time.Duration) {
	inner := newScriptedStore()
	rs := NewRetryStore(inner, policy)
	now := time.Unix(1000, 0)
	var slept []time.Duration
	rs.breaker.now = func() time.Time { return now }
	rs.sleep = func(d time.Duration) { slept = append(slept, d) }
	return rs, inner, &now, &slept
}

func TestRetryStoreFaultRetriesTransientErrors(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 2, BaseDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond, TripAfter: 3, ProbeEvery: time.Second}
	rs, inner, _, slept := testClockStore(policy)

	inner.Put("k", Result{})
	inner.script(2, 0) // two transient failures, then success
	if _, ok := rs.Get("k"); !ok {
		t.Fatal("Get failed despite retries covering the transient errors")
	}
	if gets, _ := inner.counts(); gets != 3 {
		t.Errorf("inner saw %d gets, want 3 (1 + 2 retries)", gets)
	}
	// Exponential back-off from BaseDelay, capped at MaxDelay.
	if len(*slept) != 2 || (*slept)[0] != time.Millisecond || (*slept)[1] != 2*time.Millisecond {
		t.Errorf("back-off sequence = %v, want [1ms 2ms]", *slept)
	}
	if st := rs.Stats(); st.Retries != 2 || st.Trips != 0 || st.Degraded {
		t.Errorf("stats after recovered transient = %+v, want 2 retries, no trip", st)
	}

	inner.script(0, 1) // one transient put failure
	rs.Put("k2", Result{})
	if _, ok, _ := inner.GetErr("k2"); !ok {
		t.Error("retried Put never landed in the inner store")
	}
}

func TestRetryStoreFaultBreakerTripsQuarantinesAndProbes(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 1, TripAfter: 2, ProbeEvery: time.Second}
	rs, inner, now, _ := testClockStore(policy)
	inner.Put("k", Result{})

	// Two operations exhaust their retries: the breaker trips.
	inner.script(4, 0)
	rs.Get("k")
	rs.Get("k")
	if !rs.Degraded() {
		t.Fatal("breaker did not open after TripAfter exhausted operations")
	}
	if st := rs.Stats(); st.Trips != 1 || !st.Degraded {
		t.Errorf("stats after trip = %+v, want 1 trip, degraded", st)
	}

	// Quarantined: operations answer instantly without touching the inner
	// store — an instant miss for Get, a dropped write for Put.
	gets0, puts0 := inner.counts()
	if _, ok := rs.Get("k"); ok {
		t.Error("quarantined Get returned a hit")
	}
	rs.Put("k3", Result{})
	if gets, puts := inner.counts(); gets != gets0 || puts != puts0 {
		t.Errorf("quarantined ops reached the inner store: %d/%d → %d/%d", gets0, puts0, gets, puts)
	}

	// After ProbeEvery one probe is admitted; a failing probe re-arms.
	*now = now.Add(policy.ProbeEvery)
	inner.script(2, 0)
	if _, ok := rs.Get("k"); ok {
		t.Error("failing probe returned a hit")
	}
	if !rs.Degraded() {
		t.Error("failed probe closed the breaker")
	}
	// The probe slot is claimed: a second operation in the same window
	// stays quarantined even though the inner store would now succeed.
	gets1, _ := inner.counts()
	rs.Get("k")
	if gets, _ := inner.counts(); gets != gets1 {
		t.Error("second operation inside one probe window reached the inner store")
	}

	// Next window: the disk has recovered, the probe succeeds, breaker
	// closes, and normal service resumes — hits and durable writes.
	*now = now.Add(policy.ProbeEvery)
	if _, ok := rs.Get("k"); !ok {
		t.Error("successful probe did not serve the hit")
	}
	if rs.Degraded() {
		t.Error("successful probe left the breaker open")
	}
	rs.Put("k4", Result{})
	if _, ok, _ := inner.GetErr("k4"); !ok {
		t.Error("post-recovery Put was dropped")
	}
}

func TestRetryStoreFaultCleanMissCountsAsHealthy(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 0, TripAfter: 1, ProbeEvery: time.Second}
	rs, inner, now, _ := testClockStore(policy)

	inner.script(1, 0)
	rs.Get("k") // trips immediately (TripAfter 1, no retries)
	if !rs.Degraded() {
		t.Fatal("breaker did not trip")
	}
	// The probe is a miss — but a *clean* miss: the tier answered, so the
	// breaker closes.
	*now = now.Add(policy.ProbeEvery)
	if _, ok := rs.Get("missing"); ok {
		t.Error("miss probe returned a hit")
	}
	if rs.Degraded() {
		t.Error("clean miss did not close the breaker")
	}
}

func TestRetryStoreFaultCapabilityForwarding(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDiskStore(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRetryStore(ds, DefaultRetryPolicy())
	defer rs.Close()

	if rs.Dir() != ds.Dir() {
		t.Errorf("Dir() = %q, want %q", rs.Dir(), ds.Dir())
	}
	if rs.MaxBytes() != ds.MaxBytes() {
		t.Errorf("MaxBytes() = %d, want %d", rs.MaxBytes(), ds.MaxBytes())
	}

	// A farm configured with the wrapper reports the disk tier's limits.
	fm := New(1, WithDiskStore(rs))
	defer fm.Close()
	l := fm.Limits()
	if !l.Disk || l.DiskDir != ds.Dir() || l.DiskMaxBytes != ds.MaxBytes() {
		t.Errorf("farm limits lost the wrapped tier's identity: %+v", l)
	}
}

// TestRetryStoreFaultJitterSpreadsBackoffAndProbe pins the jitter contract:
// back-off delays and probe timing are spread by a factor in
// [1-Jitter, 1+Jitter], so a fleet whose breakers tripped together does not
// hammer a recovering tier in lockstep.
func TestRetryStoreFaultJitterSpreadsBackoffAndProbe(t *testing.T) {
	policy := RetryPolicy{
		MaxRetries: 1,
		BaseDelay:  10 * time.Millisecond,
		MaxDelay:   time.Second,
		TripAfter:  1,
		ProbeEvery: time.Second,
		Jitter:     0.5,
	}
	rs, inner, now, slept := testClockStore(policy)
	defer rs.Close()
	// Scripted randomness: 0 → factor 1-j, 1 → factor 1+j.
	rolls, i := []float64{0, 1, 0.5}, 0
	rs.breaker.rand = func() float64 { v := rolls[i%len(rolls)]; i++; return v }

	// Two scripted failures: one retry (jittered back-off), then the trip
	// (jittered probe deadline).
	inner.script(2, 0)
	if _, _, err := rs.GetErr(testKey(1)); err == nil {
		t.Fatal("scripted failure did not surface")
	}
	if len(*slept) != 1 || (*slept)[0] != 5*time.Millisecond {
		t.Fatalf("back-off slept %v, want [5ms] (10ms spread by factor 1-0.5)", *slept)
	}
	if !rs.Degraded() {
		t.Fatal("breaker did not trip after TripAfter=1")
	}

	// The probe deadline was jittered to now + 1.5s (1s by factor 1+0.5):
	// at +1.1s the tier must still refuse, at +1.5s it must probe.
	gets, _ := inner.counts()
	*now = now.Add(1100 * time.Millisecond)
	if _, _, err := rs.GetErr(testKey(1)); !errors.Is(err, ErrStoreQuarantined) {
		t.Fatalf("probe admitted before the jittered deadline: err=%v", err)
	}
	if g, _ := inner.counts(); g != gets {
		t.Fatalf("quarantined get touched the inner store (%d calls, was %d)", g, gets)
	}
	*now = now.Add(400 * time.Millisecond)
	if _, _, err := rs.GetErr(testKey(1)); err != nil {
		t.Fatalf("probe at the jittered deadline failed: %v", err)
	}
	if g, _ := inner.counts(); g != gets+1 {
		t.Fatalf("probe did not reach the inner store (%d calls, was %d)", g, gets)
	}
	if rs.Degraded() {
		t.Fatal("successful probe (clean miss) did not close the breaker")
	}
}

// TestRetryStoreFaultZeroJitterDeterministic pins that Jitter 0 keeps the
// historical deterministic timing — the rest of this suite relies on it.
func TestRetryStoreFaultZeroJitterDeterministic(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 2, BaseDelay: 4 * time.Millisecond, MaxDelay: time.Second, TripAfter: 3, ProbeEvery: time.Second}
	rs, inner, _, slept := testClockStore(policy)
	defer rs.Close()
	rs.breaker.rand = func() float64 { t.Fatal("jitter 0 consulted the randomness source"); return 0 }
	inner.Put(testKey(2), Result{})
	inner.script(2, 0)
	if _, ok := rs.Get(testKey(2)); !ok {
		t.Fatal("get did not succeed on the third attempt")
	}
	if len(*slept) != 2 || (*slept)[0] != 4*time.Millisecond || (*slept)[1] != 8*time.Millisecond {
		t.Fatalf("back-off slept %v, want [4ms 8ms]", *slept)
	}
}

// TestRetryStoreFaultQuarantineSentinel pins the error taxonomy composing
// tiers rely on: an exhausted operation surfaces the underlying error, and
// a quarantined tier answers ErrStoreQuarantined on both halves.
func TestRetryStoreFaultQuarantineSentinel(t *testing.T) {
	policy := RetryPolicy{MaxRetries: 0, TripAfter: 1, ProbeEvery: time.Hour}
	rs, inner, _, _ := testClockStore(policy)
	defer rs.Close()

	inner.script(1, 0)
	if _, _, err := rs.GetErr(testKey(3)); !errors.Is(err, errScripted) {
		t.Fatalf("exhausted get surfaced %v, want the underlying error", err)
	}
	if _, _, err := rs.GetErr(testKey(3)); !errors.Is(err, ErrStoreQuarantined) {
		t.Fatalf("quarantined get surfaced %v, want ErrStoreQuarantined", err)
	}
	if err := rs.PutErr(testKey(3), Result{}); !errors.Is(err, ErrStoreQuarantined) {
		t.Fatalf("quarantined put surfaced %v, want ErrStoreQuarantined", err)
	}
	// The absorbing Store facade stays miss/drop semantics.
	if _, ok := rs.Get(testKey(3)); ok {
		t.Fatal("quarantined Get answered a hit")
	}
}

// testKey returns a well-formed (64 hex chars) cache key unique to n.
func testKey(n byte) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hex[n%16]
	}
	return string(b)
}
