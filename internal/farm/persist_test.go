package farm_test

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// TestDifferentialCacheFreshDiskEquivalence is the harness run on its own
// package: fresh inline runs, a warm in-memory farm and a cold farm
// replaying a warm disk directory must all produce byte-identical results.
func TestDifferentialCacheFreshDiskEquivalence(t *testing.T) {
	farmtest.AssertEquivalent(t, farmtest.Jobs())
}

// TestDiskTierPromotesToMemory checks the two-level composition: after one
// disk hit the entry must be served from the memory tier, not re-read from
// disk.
func TestDiskTierPromotesToMemory(t *testing.T) {
	jobs := farmtest.Jobs()[:2]
	dir := t.TempDir()

	ds, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := farm.New(2, farm.WithDiskStore(ds))
	farmtest.DoBatch(t, "warm pass", warm, jobs)
	warm.Close()

	ds2, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := farm.New(2, farm.WithDiskStore(ds2))
	defer cold.Close()
	farmtest.DoBatch(t, "cold disk pass", cold, jobs)
	farmtest.DoBatch(t, "cold memory pass", cold, jobs)
	st := cold.Stats()
	if st.DiskHits != int64(len(jobs)) {
		t.Fatalf("disk hits = %d, want %d (second pass must come from memory): %+v", st.DiskHits, len(jobs), st)
	}
	if st.Memory.Hits != int64(len(jobs)) {
		t.Fatalf("memory hits = %d, want %d: %+v", st.Memory.Hits, len(jobs), st)
	}
	if st.Misses != 0 || st.Completed != 0 {
		t.Fatalf("cold farm simulated: %+v", st)
	}
}

// TestEvictedEntriesRecomputeCorrectly bounds the memory tier below the job
// count with no disk tier: every entry is eventually evicted, recomputed on
// resubmission, and must still match the fresh reference byte-for-byte.
func TestEvictedEntriesRecomputeCorrectly(t *testing.T) {
	jobs := farmtest.Jobs()
	want := farmtest.RunFresh(t, jobs)

	f := farm.New(2, farm.WithMaxEntries(2))
	defer f.Close()
	first := farmtest.DoBatch(t, "bounded farm first pass", f, jobs)
	farmtest.AssertSameResults(t, "bounded farm first pass", want, first)
	second := farmtest.DoBatch(t, "bounded farm recompute pass", f, jobs)
	farmtest.AssertSameResults(t, "bounded farm recompute pass", want, second)

	st := f.Stats()
	if st.Memory.Evictions == 0 {
		t.Fatalf("no evictions with max entries 2 and %d jobs: %+v", len(jobs), st)
	}
	if st.CacheEntries > 2 {
		t.Fatalf("memory tier exceeded its bound: %d entries", st.CacheEntries)
	}
	// With the cache bounded to 2 of len(jobs) entries and two sequential
	// full passes, most of the second pass must have been recomputed.
	if st.Completed < int64(len(jobs))+1 {
		t.Fatalf("expected recomputation after eviction, completed = %d: %+v", st.Completed, st)
	}
}

// TestConcurrentSubmitEvictPersist hammers a farm whose memory tier is
// small and whose disk tier is byte-bounded, from many goroutines, under
// -race in CI: submissions, evictions on both tiers and persistence must
// not race, and every result must stay byte-identical to the reference.
func TestConcurrentSubmitEvictPersist(t *testing.T) {
	jobs := farmtest.Jobs()
	want := farmtest.RunFresh(t, jobs)

	ds, err := farm.NewDiskStore(t.TempDir(), 8<<10) // small: forces disk evictions
	if err != nil {
		t.Fatal(err)
	}
	f := farm.New(4, farm.WithMaxEntries(3), farm.WithDiskStore(ds))
	defer f.Close()

	const rounds = 8
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(jobs)
				res, err := f.Do(jobs[i])
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if err := farmtest.DiffResults(want[i], res); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
				}
			}
		}(g)
	}
	wg.Wait()

	st := f.Stats()
	if st.Memory.Entries > 3 {
		t.Fatalf("memory tier exceeded its bound under concurrency: %+v", st.Memory)
	}
	if st.Disk == nil {
		t.Fatal("no disk tier stats")
	}
	if st.Disk.Bytes > 8<<10 {
		t.Fatalf("disk tier exceeded its byte bound: %+v", *st.Disk)
	}
}

// TestDiskStoreSurvivesProcessBoundary simulates the process boundary at
// the store level: write results through one store, open a second store on
// the same directory (as a new process would) and require byte-identical
// round trips plus correct size accounting from the segment scan, then cut
// the segment mid-record as a crashed writer would.
func TestDiskStoreSurvivesProcessBoundary(t *testing.T) {
	jobs := farmtest.Jobs()[:3]
	want := farmtest.RunFresh(t, jobs)
	dir := t.TempDir()

	a, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(jobs))
	for i, j := range jobs {
		keys[i], err = j.Key()
		if err != nil {
			t.Fatal(err)
		}
		a.Put(keys[i], want[i])
	}
	if st := a.Stats(); st.Entries != int64(len(jobs)) || st.Bytes == 0 {
		t.Fatalf("unexpected store stats after writes: %+v", st)
	}

	b, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ast, bst := a.Stats(), b.Stats(); ast.Entries != bst.Entries || ast.Bytes != bst.Bytes {
		t.Fatalf("rescan accounting drifted: %+v vs %+v", ast, bst)
	}
	for i, key := range keys {
		res, ok := b.Get(key)
		if !ok {
			t.Fatalf("entry %d missing after reopen", i)
		}
		if err := farmtest.DiffResults(want[i], res); err != nil {
			t.Fatalf("entry %d not byte-identical after reopen: %v", i, err)
		}
	}

	// The versioned directory isolates formats: a store rooted elsewhere
	// sees nothing.
	other, err := farm.NewDiskStore(filepath.Join(dir, "elsewhere"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := other.Get(keys[0]); ok {
		t.Fatal("unrelated store served another directory's entry")
	}

	// A writer that crashed mid-record leaves a torn segment tail: a new
	// process serves every earlier record and misses the torn one.
	a.Close()
	b.Close()
	segs, err := filepath.Glob(filepath.Join(b.Dir(), "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	last := len(keys) - 1
	off := bytes.LastIndex(data, []byte(keys[last]))
	if err := os.Truncate(segs[0], int64(off+(len(data)-off)/2)); err != nil {
		t.Fatal(err)
	}
	c, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, key := range keys[:last] {
		res, ok := c.Get(key)
		if !ok {
			t.Fatalf("entry %d before the torn tail missing", i)
		}
		if err := farmtest.DiffResults(want[i], res); err != nil {
			t.Fatalf("entry %d before the torn tail not byte-identical: %v", i, err)
		}
	}
	if _, ok := c.Get(keys[last]); ok {
		t.Fatal("the torn record was served")
	}
	if st := c.Stats(); st.Entries != int64(last) || st.Corrupt != 0 || st.Errors != 0 {
		t.Fatalf("a torn tail is dead bytes, not damage: %+v", st)
	}
}

// gatedStore holds one key's Put at a gate, so a test can stand inside the
// window where a fresh result is in the memory tier but not yet on disk.
type gatedStore struct {
	farm.Store
	key              string
	entered, release chan struct{}
}

func (g *gatedStore) Put(key string, res farm.Result) {
	if key == g.key {
		close(g.entered)
		<-g.release
	}
	g.Store.Put(key, res)
}

// TestResubmitDuringPersistAttaches: a result that a one-entry memory tier
// has already evicted while its disk write is still in flight is between
// tiers; an identical submission arriving then must attach to the finishing
// call, not simulate a second time.
func TestResubmitDuringPersistAttaches(t *testing.T) {
	jobs := farmtest.Jobs()
	a, b := jobs[0], jobs[1]
	keyA, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := farm.NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedStore{Store: ds, key: keyA, entered: make(chan struct{}), release: make(chan struct{})}
	fm := farm.New(2, farm.WithMaxEntries(1), farm.WithDiskStore(gate))
	defer fm.Close()

	first := fm.Submit(a)
	<-gate.entered // a is computed and in memory; its disk write is parked
	if _, err := fm.Do(b); err != nil {
		t.Fatal(err) // b's result evicts a's from the one-entry memory tier
	}
	second := fm.Submit(a)
	if st := fm.Stats(); st.Deduped != 1 {
		t.Errorf("resubmission during the persist window: deduped = %d, want 1 (stats %+v)", st.Deduped, st)
	}
	close(gate.release)
	want, err := first.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got, err := second.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := farmtest.DiffResults(want, got); err != nil {
		t.Errorf("attached waiter got a different result: %v", err)
	}
	if st := fm.Stats(); st.Completed != 2 {
		t.Errorf("%d simulations ran, want 2 (one each for a and b)", st.Completed)
	}
}

// TestFailedDiskWriteKeepsResultInMemory: over a disk tier a computed row
// waits on disk, not in memory, unless the write fails. Over a fault store
// that fails every operation, bare or quarantined behind a RetryStore, a
// resubmitted row is a memory hit and nothing is simulated twice.
func TestFailedDiskWriteKeepsResultInMemory(t *testing.T) {
	job := farmtest.Jobs()[0]
	for _, tc := range []struct {
		name string
		wrap func(farm.Store) farm.Store
	}{
		{"bare", func(s farm.Store) farm.Store { return s }},
		{"retry", func(s farm.Store) farm.Store { return farm.NewRetryStore(s, farmtest.TestRetryPolicy()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := farm.NewDiskStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			fs := farmtest.NewFaultStore(ds, farmtest.FaultPolicy{ErrRate: 1})
			fm := farm.New(1, farm.WithDiskStore(tc.wrap(fs)))
			defer fm.Close()
			want, err := fm.Do(job)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fm.Do(job)
			if err != nil {
				t.Fatal(err)
			}
			if err := farmtest.DiffResults(want, got); err != nil {
				t.Fatalf("resubmission differs: %v", err)
			}
			st := fm.Stats()
			if !got.Hit || st.Completed != 1 || st.DiskHits != 0 || st.Memory.Hits != 1 {
				t.Fatalf("want one compute and a memory hit: hit=%v %+v", got.Hit, st)
			}
			if _, puts, _ := fs.Injected(); puts == 0 {
				t.Fatal("the fault store failed no write")
			}
		})
	}
}
