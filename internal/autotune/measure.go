package autotune

import (
	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

// FarmConvCycleMeasurer measures conv mappings by simulated cycle count
// through the simulation farm: feasible configurations become dry-run jobs
// that execute concurrently across the farm's workers, and repeated
// configurations — common across tuner generations and repeated sweeps —
// are served from the content-addressed cache. Dry-run jobs take the
// analytical fast path (closed-form per tile-size class), so each
// measurement is O(boundary classes) rather than O(steps). Costs are
// identical to ConvCycleCost's.
func FarmConvCycleMeasurer(f *farm.Farm, cfg config.HWConfig, d tensor.ConvDims) Measurer {
	return farmCycleMeasurer{
		farm: f,
		job: func(c Config) (farm.Job, bool) {
			m := ConvMappingOf(c)
			if err := m.Validate(d, cfg.MSSize); err != nil {
				return farm.Job{}, false
			}
			return farm.Job{HW: cfg, Kind: farm.Conv2D, Dims: d, ConvMapping: m, DryRun: true}, true
		},
	}
}

// FarmFCCycleMeasurer is the dense-layer analogue of FarmConvCycleMeasurer,
// matching FCCycleCost.
func FarmFCCycleMeasurer(f *farm.Farm, cfg config.HWConfig, batches, inNeurons, outNeurons int) Measurer {
	return farmCycleMeasurer{
		farm: f,
		job: func(c Config) (farm.Job, bool) {
			m := FCMappingOf(c)
			if err := m.Validate(batches, inNeurons, outNeurons, cfg.MSSize); err != nil {
				return farm.Job{}, false
			}
			return farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: m,
				M: batches, K: inNeurons, N: outNeurons, DryRun: true}, true
		},
	}
}

type farmCycleMeasurer struct {
	farm *farm.Farm
	job  func(Config) (farm.Job, bool)
}

func (fm farmCycleMeasurer) MeasureBatch(cfgs []Config) []Cost {
	costs := make([]Cost, len(cfgs))
	futures := make([]*farm.Future, len(cfgs))
	for i, c := range cfgs {
		j, ok := fm.job(c)
		if !ok {
			costs[i] = Infeasible
			continue
		}
		futures[i] = fm.farm.Submit(j)
	}
	for i, fu := range futures {
		if fu == nil {
			continue
		}
		res, err := fu.Wait()
		if err != nil {
			costs[i] = Infeasible
			continue
		}
		costs[i] = Cost{Primary: float64(res.Stats.Cycles)}
	}
	return costs
}
