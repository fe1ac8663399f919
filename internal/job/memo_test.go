package job_test

import (
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/farm/farmtest"
	"repro/internal/job"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// TestOutputMemoConcurrentMiss holds two runs of one output class — two
// mappings that differ only in T_K — between their missed lookup and their
// computation, so both miss the same key at once. Both must compute, both
// put, and both return the oracle's result; a third run is then a hit.
func TestOutputMemoConcurrentMiss(t *testing.T) {
	in := tensor.RandomUniform(1, 1, 1, 6, 6, 8)
	w := tensor.RandomUniform(2, 1, 3, 3, 8, 8)
	in.SetIdentity(sha256.Sum256([]byte("race input")))
	w.SetIdentity(sha256.Sum256([]byte("race weights")))
	pc := tensor.NewPackCache(0, 0)
	base := job.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: job.Conv2D, Layout: tensor.NHWC,
		Dims:  tensor.ConvDims{N: 1, C: 8, H: 6, W: 6, K: 8, R: 3, S: 3, PadH: 1, PadW: 1},
		Input: in, Weights: w}
	jobs := make([]job.Job, 3)
	for i := range jobs {
		jobs[i] = base
		jobs[i].ConvMapping = mapping.ConvMapping{TR: 1, TS: 1, TC: 1, TK: i + 1, TG: 1, TN: 1, TX: 1, TY: 1}
	}

	var missed sync.WaitGroup
	missed.Add(2)
	restore := job.SetOutputMissHook(func() {
		missed.Done()
		missed.Wait()
	})
	results := make([]job.Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = job.Run(jobs[i].WithPackCache(pc))
		}()
	}
	wg.Wait()
	restore()
	if st := pc.Stats(); st.Misses != 2 || st.Puts != 2 || st.Entries != 1 {
		t.Fatalf("two concurrent misses of one key: %+v, want 2 misses, 2 puts, 1 entry", st)
	}
	results[2], errs[2] = job.Run(jobs[2].WithPackCache(pc))
	if st := pc.Stats(); st.Hits != 1 {
		t.Fatalf("the third run missed: %+v", st)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if i := tensor.FirstBitDiff(results[0].Out, results[1].Out); i >= 0 {
		t.Errorf("the racing runs' outputs differ at element %d", i)
	}
	for i, j := range jobs {
		j.Reference = true
		want, err := job.Run(j)
		if err != nil {
			t.Fatal(err)
		}
		if err := farmtest.DiffResults(want, results[i]); err != nil {
			t.Errorf("run %d (T_K=%d) diverges from the oracle: %v", i, j.ConvMapping.TK, err)
		}
	}
}
