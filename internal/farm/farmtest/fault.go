package farmtest

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/farm"
)

// TestRetryPolicy is the retry configuration the chaos suites run the farm
// under: the same shape as farm.DefaultRetryPolicy but with microsecond
// back-off and a fast probe, so a -race chaos run exercises the full
// retry → trip → quarantine → probe → recover cycle in milliseconds.
func TestRetryPolicy() farm.RetryPolicy {
	return farm.RetryPolicy{
		MaxRetries: 2,
		BaseDelay:  50 * time.Microsecond,
		MaxDelay:   time.Millisecond,
		TripAfter:  3,
		ProbeEvery: 10 * time.Millisecond,
	}
}

// AssertFaultTolerant proves the farm's central robustness guarantee: disk
// faults cost retries, quarantine and recomputation — never wrong bytes.
// It runs the standard job table through a farm whose disk tier misbehaves
// per policy (wrapped in a RetryStore, as bifrost-serve deploys it), twice,
// and asserts both passes byte-identical to fresh inline execution. With a
// total outage (ErrRate >= 1) it additionally asserts the health breaker
// actually tripped — the sweep must have survived quarantine, not luck.
func AssertFaultTolerant(tb testing.TB, policy FaultPolicy) {
	tb.Helper()
	jobs := Jobs()
	want := RunFresh(tb, jobs)

	ds, err := farm.NewDiskStore(tb.TempDir(), 0)
	if err != nil {
		tb.Fatalf("opening disk store: %v", err)
	}
	fs := NewFaultStore(ds, policy)
	fm := farm.New(4, farm.WithDiskStore(farm.NewRetryStore(fs, TestRetryPolicy())))
	defer fm.Close()

	first := DoBatch(tb, fmt.Sprintf("faulted first pass (policy %+v)", policy), fm, jobs)
	AssertSameResults(tb, "faulted first pass vs fresh", want, first)

	second := DoBatch(tb, fmt.Sprintf("faulted second pass (policy %+v)", policy), fm, jobs)
	AssertSameResults(tb, "faulted second pass vs fresh", want, second)

	st := fm.Stats()
	if st.Disk == nil {
		tb.Fatalf("farm lost its disk tier stats: %+v", st)
	}
	gets, puts, dropped := fs.Injected()
	if policy.ErrRate > 0 && gets+puts == 0 {
		tb.Errorf("policy %+v injected no faults over %d jobs", policy, 2*len(jobs))
	}
	// Only a pure-corruption policy reliably drops reads: when errors are
	// mixed in, the breaker may quarantine the tier before any read rolls
	// corrupt, and which draw lands on which operation is schedule-dependent.
	if policy.CorruptRate > 0 && policy.ErrRate == 0 && dropped == 0 {
		tb.Errorf("policy %+v dropped no reads over %d jobs", policy, 2*len(jobs))
	}
	if policy.ErrRate >= 1 && st.Disk.Trips == 0 {
		tb.Errorf("total disk outage never tripped the breaker: %+v", st.Disk)
	}
}
