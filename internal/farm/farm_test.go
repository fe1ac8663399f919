package farm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

func TestRunMatchesDirectAPI(t *testing.T) {
	j := convJob()
	res, err := Run(j)
	if err != nil {
		t.Fatal(err)
	}
	if res.Out == nil || res.Stats.Cycles == 0 {
		t.Fatalf("conv job produced no output or zero cycles: %+v", res.Stats)
	}
	if got := res.Out.Shape(); got[1] != j.Dims.K {
		t.Fatalf("output shape %v does not match K=%d", got, j.Dims.K)
	}
}

func TestFarmCachesIdenticalJobs(t *testing.T) {
	f := New(2)
	defer f.Close()
	j := convJob()

	first, err := f.Do(j)
	if err != nil {
		t.Fatal(err)
	}
	if first.Hit {
		t.Fatal("first execution reported a cache hit")
	}
	second, err := f.Do(j)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit {
		t.Fatal("second identical execution missed the cache")
	}
	if !tensor.AllClose(first.Out, second.Out, 0) {
		t.Fatal("cached result differs from fresh result")
	}
	if first.Stats != second.Stats {
		t.Fatalf("cached stats differ: %+v vs %+v", first.Stats, second.Stats)
	}

	st := f.Stats()
	if st.Submitted != 2 || st.Misses != 1 || st.Hits != 1 || st.Completed != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Memory.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", st.Memory.Entries)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

// TestFarmCachedOutputIsIsolated ensures a caller mutating a returned tensor
// cannot poison the cache.
func TestFarmCachedOutputIsIsolated(t *testing.T) {
	f := New(1)
	defer f.Close()
	j := convJob()
	a, err := f.Do(j)
	if err != nil {
		t.Fatal(err)
	}
	a.Out.Data()[0] = 12345
	b, err := f.Do(j)
	if err != nil {
		t.Fatal(err)
	}
	if b.Out.Data()[0] == 12345 {
		t.Fatal("mutating a returned tensor poisoned the cache")
	}
}

// TestFarmSingleFlight floods the farm with identical jobs from many
// goroutines and checks exactly one simulation ran.
func TestFarmSingleFlight(t *testing.T) {
	f := New(4)
	defer f.Close()
	j := convJob()
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	outs := make([]Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = f.Do(j)
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !tensor.AllClose(outs[0].Out, outs[i].Out, 0) {
			t.Fatalf("submission %d returned a different result", i)
		}
	}
	st := f.Stats()
	if st.Completed != 1 {
		t.Fatalf("%d simulations ran for %d identical submissions, want 1", st.Completed, n)
	}
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Deduped != n-1 {
		t.Fatalf("hits+deduped = %d, want %d (stats: %+v)", st.Hits+st.Deduped, n-1, st)
	}
}

func TestFarmDoBatchPreservesOrder(t *testing.T) {
	f := New(4)
	defer f.Close()
	var jobs []Job
	for _, tk := range []int{1, 2, 4} {
		j := convJob()
		j.ConvMapping.TK = tk
		jobs = append(jobs, j)
	}
	// Duplicate the middle job: it must dedupe, not rerun.
	jobs = append(jobs, jobs[1])
	results, errs := f.DoBatch(jobs)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	// Distinct mappings must produce distinct cycle counts here, and the
	// duplicate must agree with its original — ordering is preserved.
	if results[1].Stats != results[3].Stats {
		t.Fatalf("duplicate job diverged: %+v vs %+v", results[1].Stats, results[3].Stats)
	}
	if results[0].Stats.Cycles == results[2].Stats.Cycles {
		t.Fatal("distinct mappings reported identical cycles; ordering likely broken")
	}
	if st := f.Stats(); st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
}

func TestFarmErrorsAreNotCached(t *testing.T) {
	f := New(1)
	defer f.Close()
	bad := Job{HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D} // no tensors
	if _, err := f.Do(bad); err == nil {
		t.Fatal("expected an error for a tensor-less conv job")
	}
	st := f.Stats()
	if st.Failed == 0 {
		t.Fatalf("failed = 0, want > 0: %+v", st)
	}
	if st.Memory.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
}

func TestFarmSubmitAfterClose(t *testing.T) {
	f := New(1)
	f.Close()
	if _, err := f.Do(convJob()); err == nil {
		t.Fatal("expected an error submitting to a closed farm")
	}
}

func TestFarmDryRunDense(t *testing.T) {
	f := New(2)
	defer f.Close()
	res, err := f.Do(denseJob())
	if err != nil {
		t.Fatal(err)
	}
	if res.Out != nil {
		t.Fatal("dry-run job returned an output tensor")
	}
	if res.Stats.Cycles == 0 {
		t.Fatal("dry-run job reported zero cycles")
	}
}
