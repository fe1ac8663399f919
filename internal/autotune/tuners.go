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
type GATuner struct {
	Population int     // population size (default 32)
	Elite      int     // genomes carried over unchanged (default 4)
	Mutation   float64 // per-gene mutation probability (default 0.1)
}

// Tune implements Tuner.
func (g GATuner) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	if opts.Trials <= 0 {
		return Result{}, fmt.Errorf("autotune: GA tuner needs a positive trial budget")
	}
	pop := g.Population
	if pop <= 0 {
		pop = 32
	}
	elite := g.Elite
	if elite <= 0 {
		elite = 4
	}
	if elite > pop/2 {
		elite = pop / 2
	}
	mutation := g.Mutation
	if mutation <= 0 {
		mutation = 0.1
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	tr := newTracker(opts.EarlyStopping)

	type individual struct {
		genome []int
		cost   Cost
	}
	randGenome := func() []int {
		genome := make([]int, len(space.Knobs))
		for i, k := range space.Knobs {
			genome[i] = rng.Intn(len(k.Values))
		}
		return genome
	}
	cache := make(map[string]Cost)
	// evaluateBatch costs a slice of genomes: measurements happen as one
	// batch (parallel under a Measurer), but results are recorded in genome
	// order and duplicates resolve through the cache exactly as a
	// one-at-a-time evaluation would, so the trial log is identical to the
	// serial tuner's. Costs are aligned with genomes; stopped reports
	// whether early stopping or the trial budget fired partway (the
	// remaining costs are still filled, but never recorded).
	evaluateBatch := func(genomes [][]int) (costs []Cost, stopped bool) {
		costs = make([]Cost, len(genomes))
		keys := make([]string, len(genomes))
		var toMeasure []Config
		var toMeasureKeys []string
		pending := make(map[string]bool) // keys already queued in this batch
		for i, g := range genomes {
			cfg := space.fromGenome(g)
			keys[i] = cfg.String()
			if _, ok := cache[keys[i]]; ok || pending[keys[i]] {
				continue
			}
			pending[keys[i]] = true
			toMeasure = append(toMeasure, cfg)
			toMeasureKeys = append(toMeasureKeys, keys[i])
		}
		// Never measure past the trial budget: everything beyond it could
		// not be recorded anyway (the serial path stops itself via the
		// record callback, but a batch Measurer would pay for the whole
		// slice up front).
		if remaining := opts.Trials - tr.result.Measured; len(toMeasure) > remaining {
			toMeasure = toMeasure[:remaining]
			toMeasureKeys = toMeasureKeys[:remaining]
		}
		// First occurrences appear in genome order, so recording in
		// toMeasure order reproduces the serial tuner's trial log; cached
		// duplicates never record, exactly as before.
		stopped = opts.measureEach(measure, toMeasure, func(i int, c Cost) bool {
			cache[toMeasureKeys[i]] = c
			return tr.record(Trial{Config: toMeasure[i], Cost: c}) || tr.result.Measured >= opts.Trials
		})
		for i := range genomes {
			// Zero-value costs for configs skipped by an early stop are
			// never used: stopped ends the generation loop.
			costs[i] = cache[keys[i]]
		}
		return costs, stopped
	}

	population := make([]individual, pop)
	genomes := make([][]int, pop)
	for i := range genomes {
		genomes[i] = randGenome()
		population[i].genome = genomes[i]
	}
	costs, stopped := evaluateBatch(genomes)
	for i := range population {
		population[i].cost = costs[i]
	}
	for !stopped && tr.result.Measured < opts.Trials {
		sort.SliceStable(population, func(i, j int) bool { return population[i].cost.Less(population[j].cost) })
		next := make([]individual, 0, pop)
		next = append(next, population[:elite]...)
		tournament := func() individual {
			a, b := population[rng.Intn(pop)], population[rng.Intn(pop)]
			if a.cost.Less(b.cost) {
				return a
			}
			return b
		}
		children := make([][]int, 0, pop-len(next))
		for n := len(next); n < pop; n++ {
			p1, p2 := tournament(), tournament()
			child := make([]int, len(space.Knobs))
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = p1.genome[i]
				} else {
					child[i] = p2.genome[i]
				}
				if rng.Float64() < mutation {
					child[i] = rng.Intn(len(space.Knobs[i].Values))
				}
			}
			children = append(children, child)
		}
		costs, stopped = evaluateBatch(children)
		for i, child := range children {
			next = append(next, individual{genome: child, cost: costs[i]})
		}
		population = next
	}
	return tr.finish()
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
	if opts.Trials <= 0 {
		return Result{}, fmt.Errorf("autotune: XGB tuner needs a positive trial budget")
	}
	params := xgboost.DefaultParams()
	params.Rounds = xgbRounds
	rng := rand.New(rand.NewSource(opts.Seed))
	tr := newTracker(opts.EarlyStopping)
	size := space.Size()

	seen := make(map[int64]bool)
	var features [][]float64
	var targets []float64
	var maxSecondary float64 = 1

	featurize := func(cfg Config) []float64 {
		vals := cfg.Values()
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = float64(v)
		}
		return out
	}
	// scalarize folds the lexicographic cost into one regression target,
	// keeping Primary dominant: Secondary/(2·maxSecondary) < 1 never crosses
	// integer Primary gaps.
	scalarize := func(c Cost) float64 {
		if c.IsInfeasible() {
			return 0 // handled separately; never reaches the model
		}
		return c.Primary + c.Secondary/(2*maxSecondary)
	}

	// measureIdxs costs a batch of already-reserved indices (parallel under
	// a Measurer) and records the results in order, so the trial log is
	// identical to measuring one index at a time. It returns true when
	// early stopping fired.
	measureIdxs := func(idxs []int64) bool {
		cfgs := make([]Config, len(idxs))
		for i, idx := range idxs {
			cfgs[i] = space.At(idx)
		}
		return opts.measureEach(measure, cfgs, func(i int, cost Cost) bool {
			stop := tr.record(Trial{Config: cfgs[i], Cost: cost})
			if !cost.IsInfeasible() {
				if cost.Secondary > maxSecondary {
					maxSecondary = cost.Secondary
				}
				features = append(features, featurize(cfgs[i]))
				targets = append(targets, 0) // rewritten below, once maxSecondary is known
			}
			return stop
		})
	}

	randomUnseen := func() (int64, bool) {
		if int64(len(seen)) >= size {
			return 0, false
		}
		for tries := 0; tries < 64; tries++ {
			idx := rng.Int63n(size)
			if !seen[idx] {
				return idx, true
			}
		}
		for idx := int64(0); idx < size; idx++ {
			if !seen[idx] {
				return idx, true
			}
		}
		return 0, false
	}

	// Candidate scoring reuses one decode and one feature buffer.
	knobs := make([]int, len(space.Knobs))
	feat := make([]float64, len(space.Knobs))

	// Warm-up: two batches of random measurements.
	var warm []int64
	for i := 0; i < 2*xgbBatch && tr.result.Measured+len(warm) < opts.Trials; i++ {
		idx, ok := randomUnseen()
		if !ok {
			break
		}
		seen[idx] = true
		warm = append(warm, idx)
	}
	if measureIdxs(warm) {
		return tr.finish()
	}

	for tr.result.Measured < opts.Trials && int64(len(seen)) < size {
		// Refresh regression targets with the current maxSecondary scale.
		ti := 0
		for _, trial := range tr.result.Trials {
			if trial.Cost.IsInfeasible() {
				continue
			}
			targets[ti] = scalarize(trial.Cost)
			ti++
		}
		var model *xgboost.Model
		if len(features) >= 4 {
			var err error
			model, err = xgboost.Train(features, targets, params)
			if err != nil {
				return tr.result, fmt.Errorf("autotune: training cost model: %w", err)
			}
		}
		// Score a pool of unseen candidates.
		type scored struct {
			idx  int64
			pred float64
		}
		candidates := make([]scored, 0, xgbPool)
		for i := 0; i < xgbPool; i++ {
			idx, ok := randomUnseen()
			if !ok {
				break
			}
			s := scored{idx: idx}
			if model != nil {
				space.decode(idx, knobs)
				for i, v := range knobs {
					feat[i] = float64(v)
				}
				s.pred = model.Predict(feat)
			} else {
				s.pred = rng.Float64()
			}
			candidates = append(candidates, s)
		}
		if len(candidates) == 0 {
			break
		}
		// Ties keep their draw order.
		slices.SortStableFunc(candidates, func(a, b scored) int { return cmp.Compare(a.pred, b.pred) })
		var picked []int64
		for _, c := range candidates {
			if len(picked) >= xgbBatch || tr.result.Measured+len(picked) >= opts.Trials {
				break
			}
			if seen[c.idx] {
				continue
			}
			seen[c.idx] = true
			picked = append(picked, c.idx)
		}
		if measureIdxs(picked) {
			return tr.finish()
		}
		if len(picked) == 0 {
			break
		}
	}
	return tr.finish()
}
