package autotune

import (
	"sort"

	"repro/internal/stonne/config"
	"repro/internal/stonne/energy"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// dryConvCost builds a MeasureFunc that scores a conv mapping from the Stats
// of a dry-run MAERI simulation (exact counters, no arithmetic). The engine
// is built once and shared: it keeps no state between calls, so concurrent
// MeasureFunc calls — e.g. under ParallelMeasurer — are safe. An invalid cfg
// or an illegal mapping measures as Infeasible.
func dryConvCost(cfg config.HWConfig, d tensor.ConvDims, score func(stats.Stats) Cost) MeasureFunc {
	eng, err := maeri.NewEngine(cfg)
	if err != nil {
		return func(Config) Cost { return Infeasible }
	}
	eng.DryRun = true
	return func(c Config) Cost {
		_, st, err := eng.Conv2D(nil, nil, d, ConvMappingOf(c))
		if err != nil {
			return Infeasible
		}
		return score(st)
	}
}

// tileCandidates returns the knob values for one tile dimension: every
// value when the dimension is small, otherwise the divisors of the
// dimension plus the powers of two, capped at `limit`. This mirrors how
// AutoTVM schedules declare tile knobs (a handful of meaningful options per
// axis — the paper's example assumes ~10 options per tile).
func tileCandidates(dim, limit int) []int {
	if limit > dim {
		limit = dim
	}
	if limit < 1 {
		limit = 1
	}
	if dim <= 12 {
		out := make([]int, 0, limit)
		for v := 1; v <= limit; v++ {
			out = append(out, v)
		}
		return out
	}
	set := map[int]bool{1: true}
	for v := 1; v*v <= dim; v++ {
		if dim%v == 0 {
			if v <= limit {
				set[v] = true
			}
			if dim/v <= limit {
				set[dim/v] = true
			}
		}
	}
	for v := 2; v <= limit; v *= 2 {
		set[v] = true
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// ConvMappingSpace builds the knob space for a MAERI convolution mapping
// (the eight Table IV tiles; T_N is pinned to 1 and T_G to the
// group-or-one choice).
func ConvMappingSpace(d tensor.ConvDims, msSize int) (*Space, error) {
	if err := d.Resolve(); err != nil {
		return nil, err
	}
	tg := []int{1}
	if d.G > 1 {
		tg = tileCandidates(d.G, msSize)
	}
	return &Space{Knobs: []Knob{
		{Name: "T_R", Values: tileCandidates(d.R, msSize)},
		{Name: "T_S", Values: tileCandidates(d.S, msSize)},
		{Name: "T_C", Values: tileCandidates(d.C/d.G, msSize)},
		{Name: "T_K", Values: tileCandidates(d.K/d.G, msSize)},
		{Name: "T_G", Values: tg},
		{Name: "T_N", Values: []int{1}},
		{Name: "T_X", Values: tileCandidates(d.P(), msSize)},
		{Name: "T_Y", Values: tileCandidates(d.Q(), msSize)},
	}}, nil
}

// FCMappingSpace builds the knob space for a MAERI fully connected mapping
// (Table V). The T_S range follows the space the paper's AutoTVM module
// searched (its published mappings max out at T_S = 20) and T_K spans up to
// 16 input neurons per virtual neuron.
func FCMappingSpace(inNeurons, outNeurons, msSize int) *Space {
	rangeVals := func(limit int) []int {
		out := make([]int, 0, limit)
		for v := 1; v <= limit; v++ {
			out = append(out, v)
		}
		return out
	}
	return &Space{Knobs: []Knob{
		{Name: "T_S", Values: rangeVals(min(20, msSize, outNeurons))},
		{Name: "T_K", Values: rangeVals(min(16, msSize, inNeurons))},
		{Name: "T_N", Values: []int{1}},
	}}
}

// ConvMappingOf decodes a configuration drawn from ConvMappingSpace.
func ConvMappingOf(c Config) mapping.ConvMapping {
	return mapping.ConvMapping{
		TR: c.Get("T_R"), TS: c.Get("T_S"), TC: c.Get("T_C"), TK: c.Get("T_K"),
		TG: c.Get("T_G"), TN: c.Get("T_N"), TX: c.Get("T_X"), TY: c.Get("T_Y"),
	}
}

// FCMappingOf decodes a configuration drawn from FCMappingSpace.
func FCMappingOf(c Config) mapping.FCMapping {
	return mapping.FCMapping{TS: c.Get("T_S"), TK: c.Get("T_K"), TN: c.Get("T_N")}
}

// ConvPsumCost measures a conv mapping by its psum count with the step
// count as tie-break — the cheap tuning signal of §VII-B ("a process that
// takes less than a second" per configuration).
func ConvPsumCost(d tensor.ConvDims, msSize int) MeasureFunc {
	return func(c Config) Cost {
		m := ConvMappingOf(c)
		if err := m.Validate(d, msSize); err != nil {
			return Infeasible
		}
		psums, err := maeri.CountConvPsums(d, m)
		if err != nil {
			return Infeasible
		}
		return Cost{Primary: float64(psums), Secondary: float64(m.Steps(d))}
	}
}

// FCPsumCost is the dense-layer analogue of ConvPsumCost.
func FCPsumCost(batches, inNeurons, outNeurons, msSize int) MeasureFunc {
	return func(c Config) Cost {
		m := FCMappingOf(c)
		if err := m.Validate(batches, inNeurons, outNeurons, msSize); err != nil {
			return Infeasible
		}
		psums := maeri.CountFCPsums(batches, inNeurons, outNeurons, m)
		return Cost{Primary: float64(psums), Secondary: float64(m.Steps(batches, inNeurons, outNeurons))}
	}
}

// ConvCycleCost measures a conv mapping by simulated cycle count. Dry runs
// use the analytical engine — per-tile-size-class closed forms instead of
// the O(steps) loop nest — so the cycles target is nearly as cheap as the
// psums target and usable on ResNet-scale layers, not just the paper's small
// Figure 10 workload.
func ConvCycleCost(cfg config.HWConfig, d tensor.ConvDims) MeasureFunc {
	return dryConvCost(cfg, d, func(st stats.Stats) Cost { return Cost{Primary: float64(st.Cycles)} })
}

// FCCycleCost measures an FC mapping by simulated cycle count, from the
// layer's shapes alone.
func FCCycleCost(cfg config.HWConfig, batches, inNeurons, outNeurons int) MeasureFunc {
	eng, err := maeri.NewEngine(cfg)
	if err != nil {
		return func(Config) Cost { return Infeasible }
	}
	return func(c Config) Cost {
		st, err := eng.DenseStats(batches, inNeurons, outNeurons, FCMappingOf(c))
		if err != nil {
			return Infeasible
		}
		return Cost{Primary: float64(st.Cycles)}
	}
}

// ConvEnergyCost measures a conv mapping by estimated energy (the paper's
// future-work tuning target, §IX), via the event-based energy model.
func ConvEnergyCost(cfg config.HWConfig, d tensor.ConvDims, model energy.Model) MeasureFunc {
	return dryConvCost(cfg, d, func(st stats.Stats) Cost {
		return Cost{Primary: model.Estimate(st).TotalPJ(), Secondary: float64(st.Cycles)}
	})
}

// ConvEDPCost measures a conv mapping by energy-delay product.
func ConvEDPCost(cfg config.HWConfig, d tensor.ConvDims, model energy.Model) MeasureFunc {
	return dryConvCost(cfg, d, func(st stats.Stats) Cost { return Cost{Primary: model.EDP(st)} })
}
