package autotune

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/xgboost"
)

// GATuner is the genetic-algorithm tuner the paper cites (GATuner): a
// population of knob-index genomes evolved with tournament selection,
// uniform crossover, point mutation and elitism.
type GATuner struct{}

const (
	gaPopulation = 32  // genomes per generation
	gaElite      = 4   // genomes carried over unchanged
	gaMutation   = 0.1 // per-gene mutation probability
)

// Tune implements Tuner.
func (GATuner) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	s, err := newSearch("GA tuner", space, measure, opts)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	type individual struct {
		genome []int
		idx    int64
		cost   Cost
	}
	// Each measured genome's cost, by flat index: the search measures an
	// index once, so a repeated genome takes its cost from here.
	costs := make(map[int64]Cost)
	var population []individual
	add := func(genome []int) {
		idx := space.index(genome)
		s.draw(idx)
		population = append(population, individual{genome: genome, idx: idx})
	}
	return s.run(func(idxs []int64, measured []Cost) error {
		for i, idx := range idxs {
			costs[idx] = measured[i]
		}
		if population == nil {
			for range gaPopulation {
				genome := make([]int, len(space.Knobs))
				for i, k := range space.Knobs {
					genome[i] = rng.Intn(len(k.Values))
				}
				add(genome)
			}
			return nil
		}
		for i := range population {
			population[i].cost = costs[population[i].idx]
		}
		sort.SliceStable(population, func(i, j int) bool { return population[i].cost.Less(population[j].cost) })
		parents := population
		tournament := func() individual {
			a, b := parents[rng.Intn(gaPopulation)], parents[rng.Intn(gaPopulation)]
			if a.cost.Less(b.cost) {
				return a
			}
			return b
		}
		population = append(make([]individual, 0, gaPopulation), parents[:gaElite]...)
		for len(population) < gaPopulation {
			p1, p2 := tournament(), tournament()
			child := make([]int, len(space.Knobs))
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = p1.genome[i]
				} else {
					child[i] = p2.genome[i]
				}
				if rng.Float64() < gaMutation {
					child[i] = rng.Intn(len(space.Knobs[i].Values))
				}
			}
			add(child)
		}
		return nil
	})
}

// XGBTuner is the model-guided tuner: it trains a gradient-boosted-trees
// cost model on the measurements so far, scores a large pool of random
// candidates with the model, and measures only the most promising batch —
// AutoTVM's transfer-learning loop with our from-scratch XGBoost.
type XGBTuner struct{}

const (
	xgbBatch  = 16  // measurements per round
	xgbPool   = 256 // model-scored candidates per round
	xgbRounds = 30  // boosting rounds per refit
)

// Tune implements Tuner.
func (XGBTuner) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	s, err := newSearch("XGB tuner", space, measure, opts)
	if err != nil {
		return Result{}, err
	}
	params := xgboost.DefaultParams()
	params.Rounds = xgbRounds
	rng := rand.New(rand.NewSource(opts.Seed))

	// The model trains on the feasible trials: features grow with the log,
	// and the targets are derived from it afresh each round, because
	// scalarize's scale moves with maxSecondary.
	var features [][]float64
	var targets []float64
	var maxSecondary float64 = 1
	fed := 0 // trials already in features

	// scalarize folds the lexicographic cost into one regression target,
	// keeping Primary dominant: Secondary/(2·maxSecondary) < 1 never crosses
	// integer Primary gaps.
	scalarize := func(c Cost) float64 { return c.Primary + c.Secondary/(2*maxSecondary) }

	// randomUnseen draws an index not drawn yet; the run only asks while
	// one is left.
	randomUnseen := func() int64 {
		for tries := 0; tries < 64; tries++ {
			if idx := rng.Int63n(s.size); !s.drawn[idx] {
				return idx
			}
		}
		idx := int64(0)
		for s.drawn[idx] {
			idx++
		}
		return idx
	}

	// Candidate scoring reuses one decode and one feature buffer.
	knobs := make([]int, len(space.Knobs))
	feat := make([]float64, len(space.Knobs))
	type scored struct {
		idx  int64
		pred float64
	}
	candidates := make([]scored, 0, xgbPool)

	return s.run(func([]int64, []Cost) error {
		if len(s.drawn) == 0 {
			// Warm-up: two batches of random measurements.
			for len(s.batch) < 2*xgbBatch && s.room() > 0 {
				s.draw(randomUnseen())
			}
			return nil
		}
		for _, t := range s.result.Trials[fed:] {
			if t.Cost.IsInfeasible() {
				continue
			}
			maxSecondary = max(maxSecondary, t.Cost.Secondary)
			f := make([]float64, len(t.Config.values))
			for i, v := range t.Config.values {
				f[i] = float64(v)
			}
			features = append(features, f)
		}
		fed = len(s.result.Trials)
		targets = targets[:0]
		for _, t := range s.result.Trials {
			if !t.Cost.IsInfeasible() {
				targets = append(targets, scalarize(t.Cost))
			}
		}
		var model *xgboost.Model
		if len(features) >= 4 {
			var err error
			if model, err = xgboost.Train(features, targets, params); err != nil {
				return fmt.Errorf("autotune: training cost model: %w", err)
			}
		}
		// Score a pool of unseen candidates.
		candidates = candidates[:0]
		for range xgbPool {
			c := scored{idx: randomUnseen()}
			if model != nil {
				space.decode(c.idx, knobs)
				for i, v := range knobs {
					feat[i] = float64(v)
				}
				c.pred = model.Predict(feat)
			} else {
				c.pred = rng.Float64()
			}
			candidates = append(candidates, c)
		}
		// Ties keep their draw order.
		slices.SortStableFunc(candidates, func(a, b scored) int { return cmp.Compare(a.pred, b.pred) })
		for _, c := range candidates {
			if len(s.batch) == xgbBatch || s.room() == 0 {
				break
			}
			s.draw(c.idx)
		}
		return nil
	})
}
