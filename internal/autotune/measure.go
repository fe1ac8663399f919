package autotune

import (
	"repro/internal/job"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

// FarmConvCycleMeasurer measures conv mappings by simulated cycle count
// through r, typically the simulation farm: feasible configurations become
// dry-run jobs that execute concurrently across the farm's workers, and
// repeated configurations — common across tuner generations and repeated
// sweeps — are served from the content-addressed cache. A nil r runs them
// inline. Dry-run jobs take the analytical fast path (closed-form per
// tile-size class), so each measurement is O(boundary classes) rather than
// O(steps). Costs are identical to ConvCycleCost's.
func FarmConvCycleMeasurer(r job.Runner, cfg config.HWConfig, d tensor.ConvDims) Measurer {
	return cycleMeasurer{
		runner: r,
		job: func(c Config) (job.Job, bool) {
			m := ConvMappingOf(c)
			if err := m.Validate(d, cfg.MSSize); err != nil {
				return job.Job{}, false
			}
			return job.Job{HW: cfg, Kind: job.Conv2D, Dims: d, ConvMapping: m, DryRun: true}, true
		},
	}
}

// FarmFCCycleMeasurer is the dense-layer analogue of FarmConvCycleMeasurer,
// matching FCCycleCost.
func FarmFCCycleMeasurer(r job.Runner, cfg config.HWConfig, batches, inNeurons, outNeurons int) Measurer {
	return cycleMeasurer{
		runner: r,
		job: func(c Config) (job.Job, bool) {
			m := FCMappingOf(c)
			if err := m.Validate(batches, inNeurons, outNeurons, cfg.MSSize); err != nil {
				return job.Job{}, false
			}
			return job.Job{HW: cfg, Kind: job.Dense, FCMapping: m,
				M: batches, K: inNeurons, N: outNeurons, DryRun: true}, true
		},
	}
}

type cycleMeasurer struct {
	runner job.Runner
	job    func(Config) (job.Job, bool)
}

// MeasureBatch runs every feasible configuration as one batch; a
// configuration whose mapping does not validate, or whose job fails, costs
// Infeasible without touching the others.
func (m cycleMeasurer) MeasureBatch(cfgs []Config) []Cost {
	costs := make([]Cost, len(cfgs))
	jobs := make([]job.Job, 0, len(cfgs))
	at := make([]int, 0, len(cfgs)) // at[k] is the config index of jobs[k]
	for i, c := range cfgs {
		j, ok := m.job(c)
		if !ok {
			costs[i] = Infeasible
			continue
		}
		jobs = append(jobs, j)
		at = append(at, i)
	}
	results, errs := job.DoBatch(m.runner, jobs)
	for k, i := range at {
		if errs[k] != nil {
			costs[i] = Infeasible
			continue
		}
		costs[i] = Cost{Primary: float64(results[k].Stats.Cycles)}
	}
	return costs
}
