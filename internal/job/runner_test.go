package job_test

import (
	"errors"
	"testing"

	"repro/internal/farm"
	"repro/internal/job"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
)

// TestRunnerBatchFailsOnlyItsOwnJob pins the batch contract autotune's
// measurers map to Infeasible: in a batch where one job's simulator panics,
// that index comes back as a *job.PanicError, and every other index carries
// its result and a nil error — inline (a nil Runner, or a nil *farm.Farm)
// and on a farm alike, with the same results.
func TestRunnerBatchFailsOnlyItsOwnJob(t *testing.T) {
	const bad = 2
	jobs := make([]job.Job, 5)
	for i := range jobs {
		jobs[i] = job.Job{HW: config.Default(config.MAERIDenseWorkload), Kind: job.Dense, DryRun: true,
			M: 1, K: 32, N: 8 + i, FCMapping: mapping.BasicFC()}
	}
	jobs[bad] = jobs[bad].WithFaultHook(func() { panic("injected batch panic") })

	fm := farm.New(2)
	defer fm.Close()
	var want []job.Result
	for _, r := range []struct {
		name   string
		runner job.Runner
	}{{"inline", nil}, {"nil farm", (*farm.Farm)(nil)}, {"farm", fm}} {
		results, errs := job.DoBatch(r.runner, jobs)
		if len(results) != len(jobs) || len(errs) != len(jobs) {
			t.Fatalf("%s: %d results and %d errors for %d jobs", r.name, len(results), len(errs), len(jobs))
		}
		var pe *job.PanicError
		if !errors.As(errs[bad], &pe) || pe.Value != "injected batch panic" {
			t.Fatalf("%s: job %d failed with %v, want its *job.PanicError", r.name, bad, errs[bad])
		}
		for i, err := range errs {
			if i == bad {
				continue
			}
			if err != nil {
				t.Errorf("%s: job %d failed alongside the panicking one: %v", r.name, i, err)
			}
			if results[i].Stats.Cycles <= 0 {
				t.Errorf("%s: job %d carries no result: %+v", r.name, i, results[i].Stats)
			}
			if want != nil && results[i].Stats != want[i].Stats {
				t.Errorf("%s: job %d stats %+v differ from inline %+v", r.name, i, results[i].Stats, want[i].Stats)
			}
		}
		if res, err := job.Do(r.runner, jobs[0]); err != nil || res.Stats != results[0].Stats {
			t.Errorf("%s: Do = %+v, %v; its batch gave %+v", r.name, res.Stats, err, results[0].Stats)
		}
		want = results
	}
}
