package farm

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// TestStatsSnapshotConsistent hammers a farm with concurrent submissions
// (hits, misses and dedups all occur) while a snapshot loop checks the
// cross-counter invariants on every Stats() it takes:
//
//	Hits + Deduped + Completed + Failed + Pending <= Submitted
//	DiskHits <= Hits
//
// Before the statsMu grouping, a snapshot could land between a job's
// Completed (or Hits) increment and its Pending decrement and observe the
// job counted twice, violating the first invariant; this test fails on
// that interleaving when the scheduler reproduces it. With the grouping the
// invariants hold on every snapshot, by construction.
func TestStatsSnapshotConsistent(t *testing.T) {
	jobs := make([]Job, 8)
	for i := range jobs {
		d := tensor.ConvDims{N: 1, C: 2, H: 6, W: 6, K: 4, R: 3, S: 3}
		jobs[i] = Job{
			HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D, Dims: d,
			ConvMapping: mapping.Basic(),
			Input:       tensor.RandomUniform(int64(i), 1, 1, 6, 6, 2),
			Weights:     tensor.RandomUniform(int64(i)+100, 1, 3, 3, 2, 4),
			Layout:      tensor.NHWC,
			Seed:        int64(i),
		}
	}
	f := New(4)
	defer f.Close()

	var stop atomic.Bool
	var snapErr atomic.Pointer[Stats]
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for !stop.Load() {
			st := f.Stats()
			if st.Hits+st.Deduped+st.Completed+st.Failed+st.Pending > st.Submitted ||
				st.DiskHits > st.Hits {
				snapErr.CompareAndSwap(nil, &st)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 40; r++ {
				if _, err := f.Do(jobs[(g+r)%len(jobs)]); err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	snapWG.Wait()
	if st := snapErr.Load(); st != nil {
		t.Fatalf("inconsistent stats snapshot observed: %+v (Hits+Deduped+Completed+Failed+Pending = %d > Submitted = %d, or DiskHits %d > Hits %d)",
			*st, st.Hits+st.Deduped+st.Completed+st.Failed+st.Pending, st.Submitted, st.DiskHits, st.Hits)
	}

	// Quiescent accounting: every submission is exactly one of hit, dedup,
	// or execution (completed/failed), and nothing stays pending.
	st := f.Stats()
	if st.Pending != 0 {
		t.Fatalf("pending jobs after quiescence: %+v", st)
	}
	if st.Hits+st.Deduped+st.Completed+st.Failed != st.Submitted {
		t.Fatalf("quiescent counters do not partition submissions: %+v", st)
	}
}

// TestFarmSharesPackCacheAcrossJobs proves the Farm → Job → api threading:
// two jobs with identical weights but different mappings must reuse the
// shared pack cache (the second job's RSCK weight transpose comes from the
// first's), and a farm with pack reuse disabled must not touch it.
func TestFarmSharesPackCacheAcrossJobs(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 2, H: 8, W: 8, K: 8, R: 3, S: 3, PadH: 1, PadW: 1}
	in := tensor.RandomUniform(1, 1, 1, 2, 8, 8)
	w := tensor.RandomUniform(2, 1, 8, 2, 3, 3)
	job := func(tk int) Job {
		return Job{HW: config.Default(config.MAERIDenseWorkload), Kind: Conv2D,
			Layout: tensor.NCHW, Dims: d,
			ConvMapping: mapping.ConvMapping{TR: 3, TS: 3, TC: 1, TK: tk, TG: 1, TN: 1, TX: 1, TY: 1},
			Input:       in, Weights: w, Seed: 1}
	}

	f := New(2)
	if _, err := f.Do(job(2)); err != nil {
		t.Fatal(err)
	}
	afterFirst := f.Stats().Pack
	if afterFirst.Puts == 0 {
		t.Fatalf("first job published nothing to the pack cache: %+v", afterFirst)
	}
	if _, err := f.Do(job(4)); err != nil {
		t.Fatal(err)
	}
	afterSecond := f.Stats().Pack
	f.Close()
	if afterSecond.Hits <= afterFirst.Hits {
		t.Fatalf("second job with shared weights never hit the pack cache: first %+v, second %+v",
			afterFirst, afterSecond)
	}

	off := New(1, WithPackCache(nil))
	if _, err := off.Do(job(2)); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats().Pack; st != (tensor.PackStats{}) {
		t.Fatalf("pack-disabled farm recorded pack activity: %+v", st)
	}
	off.Close()
}

// TestFarmCachesExactSizeOutputs pins what the memory tier holds for a
// result whose output came from the tensor arena (the SIGMA / TPU conv
// lowering): an exact-size tensor, not the arena bucket's rounded-up
// capacity pinned for the life of the entry — with the bits farm.Run
// produces.
func TestFarmCachesExactSizeOutputs(t *testing.T) {
	d := tensor.ConvDims{N: 1, C: 4, H: 12, W: 12, K: 16, R: 3, S: 3, PadH: 1, PadW: 1}
	job := Job{HW: config.Default(config.SIGMASparseGEMM), Kind: Conv2D, Layout: tensor.NCHW, Dims: d,
		ConvMapping: mapping.Basic(),
		Input:       tensor.RandomUniform(1, 1, 1, 4, 12, 12), Weights: tensor.RandomUniform(2, 1, 16, 4, 3, 3), Seed: 1}
	want, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if n := want.Out.Size(); n&(n-1) == 0 {
		t.Fatalf("output of %d elements fills its arena bucket exactly; pick a geometry that does not", n)
	}

	f := New(1)
	defer f.Close()
	res, err := f.Do(job)
	if err != nil {
		t.Fatal(err)
	}
	cached, ok := f.mem.Get(res.Key)
	if !ok {
		t.Fatal("computed result is not in the memory tier")
	}
	if l, c := len(cached.Out.Data()), cap(cached.Out.Data()); c != l {
		t.Fatalf("cached output pins %d floats for %d", c, l)
	}
	if i := tensor.FirstBitDiff(want.Out, cached.Out); i >= 0 {
		t.Fatalf("cached output diverges from farm.Run at element %d", i)
	}
}
