// Package autotune reproduces Bifrost's AutoTVM module (§VII): a knob-based
// configuration-space search where, instead of schedule transformations,
// the tunable parameters are hardware-accelerator dataflow tiles, and the
// optimisation target is a deterministic simulator metric — cycles or
// psums — rather than wall-clock latency ("latency is however not an
// appropriate optimization cost function when using STONNE", §VII-B).
//
// Four tuners are provided, matching the ones the paper names: exhaustive
// grid search, random search, a genetic-algorithm tuner (GATuner) and a
// gradient-boosted-trees tuner (XGBTuner) backed by internal/xgboost.
package autotune

import (
	"fmt"
	"math"
	"math/rand"
)

// Knob is one tunable parameter and its legal values.
type Knob struct {
	Name   string
	Values []int
}

// Space is the Cartesian configuration space of several knobs.
type Space struct {
	Knobs []Knob
}

// Size returns the number of points in the space.
func (s *Space) Size() int64 {
	n := int64(1)
	for _, k := range s.Knobs {
		n *= int64(len(k.Values))
	}
	return n
}

// Config is one point in a Space: the chosen value per knob, aligned with
// Space.Knobs.
type Config struct {
	space  *Space
	values []int
}

// Get returns the value of the named knob. It panics on unknown names,
// which are programming errors.
func (c Config) Get(name string) int {
	for i, k := range c.space.Knobs {
		if k.Name == name {
			return c.values[i]
		}
	}
	panic(fmt.Sprintf("autotune: unknown knob %q", name))
}

// Values returns the raw knob values in Space order.
func (c Config) Values() []int { return c.values }

// String renders "name=value" pairs.
func (c Config) String() string {
	out := ""
	for i, k := range c.space.Knobs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k.Name, c.values[i])
	}
	return out
}

// At decodes a flat index (mixed-radix) into a Config.
func (s *Space) At(idx int64) Config {
	if idx < 0 || idx >= s.Size() {
		panic(fmt.Sprintf("autotune: index %d out of range for space of %d", idx, s.Size()))
	}
	values := make([]int, len(s.Knobs))
	s.decode(idx, values)
	return Config{space: s, values: values}
}

// decode writes the knob values of the in-range flat index idx into values.
func (s *Space) decode(idx int64, values []int) {
	for i := len(s.Knobs) - 1; i >= 0; i-- {
		n := int64(len(s.Knobs[i].Values))
		values[i] = s.Knobs[i].Values[idx%n]
		idx /= n
	}
}

// index is decode's inverse: the flat index of per-knob option indices.
func (s *Space) index(options []int) int64 {
	var idx int64
	for i, o := range options {
		idx = idx*int64(len(s.Knobs[i].Values)) + int64(o)
	}
	return idx
}

// Cost is a lexicographic objective: Primary is the tuning target (psums or
// cycles) and Secondary breaks ties (the step count — fewer steps means
// more parallelism). Infeasible configurations have infinite cost.
type Cost struct {
	Primary   float64
	Secondary float64
}

// Infeasible marks configurations rejected by mapping validation.
var Infeasible = Cost{math.Inf(1), math.Inf(1)}

// Less orders costs lexicographically.
func (c Cost) Less(o Cost) bool {
	if c.Primary != o.Primary {
		return c.Primary < o.Primary
	}
	return c.Secondary < o.Secondary
}

// IsInfeasible reports whether the cost marks an invalid configuration.
func (c Cost) IsInfeasible() bool { return math.IsInf(c.Primary, 1) }

// MeasureFunc evaluates one configuration. Implementations are expected to
// be deterministic ("as STONNE is cycle-accurate both of these metrics are
// deterministic and multiple measurements are not needed", §VII-B).
type MeasureFunc func(Config) Cost

// Trial is one measured configuration.
type Trial struct {
	Config Config
	Cost   Cost
}

// Result summarises a tuning run.
type Result struct {
	Best     Trial
	Trials   []Trial
	Measured int
	// Converged reports whether early stopping fired before the trial
	// budget was exhausted (AutoTVM's "early stopping" utility, §VIII-B).
	Converged bool
}

// Measurer evaluates whole batches of configurations, possibly
// concurrently — e.g. through the simulation farm. Implementations must
// return costs aligned with cfgs and must be deterministic per
// configuration; the tuners then record results in submission order, which
// keeps a batched search bit-identical to the serial one.
type Measurer interface {
	MeasureBatch(cfgs []Config) []Cost
}

// Options bound a tuning run.
type Options struct {
	// Trials is the measurement budget (ignored by GridSearch, which
	// always visits the whole space).
	Trials int
	// EarlyStopping stops the run after this many measurements without
	// improving on the best feasible one; measurements before the first
	// feasible one do not count. 0 disables it.
	EarlyStopping int
	Seed          int64

	// Measurer, when set, evaluates measurement batches (typically in
	// parallel via the simulation farm); the per-config MeasureFunc is then
	// only the serial fallback. Results are identical either way — only
	// wall-clock time changes.
	Measurer Measurer
}

// measureChunk is the batch size of grid and random search: large enough to
// keep a farm's workers busy, small enough that early stopping does not
// overshoot by much.
const measureChunk = 64

// Tuner is a search strategy over a Space.
type Tuner interface {
	Tune(space *Space, measure MeasureFunc, opts Options) (Result, error)
}

// eachMeasurer measures a batch with a MeasureFunc, one configuration at a
// time.
type eachMeasurer MeasureFunc

func (f eachMeasurer) MeasureBatch(cfgs []Config) []Cost {
	costs := make([]Cost, len(cfgs))
	for i, c := range cfgs {
		costs[i] = f(c)
	}
	return costs
}

// search is one tuning run, shared by every tuner. A tuner only proposes
// flat indices (draw); the search measures each batch through one Measurer,
// keeps the trial log and the early-stopping state, and ends the run.
type search struct {
	space     *Space
	size      int64
	measurer  Measurer
	limit     int // indices the run may draw: the budget, or the space if smaller
	stop      int // early-stopping window; 0 disables it
	drawn     map[int64]bool
	batch     []int64 // drawn, not yet measured
	result    Result
	hasBest   bool
	sinceBest int
}

// newSearch starts a run of opts.Trials measurements, through opts.Measurer
// or else through measure.
func newSearch(tuner string, space *Space, measure MeasureFunc, opts Options) (*search, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("autotune: %s needs a positive trial budget", tuner)
	}
	s := &search{space: space, size: space.Size(), measurer: opts.Measurer,
		stop: opts.EarlyStopping, drawn: make(map[int64]bool)}
	s.limit = int(min(int64(opts.Trials), s.size))
	if s.measurer == nil {
		s.measurer = eachMeasurer(measure)
	}
	return s, nil
}

// room is how many more indices the run may draw.
func (s *search) room() int { return s.limit - len(s.drawn) }

// draw adds idx to the next batch unless it was drawn before or the run has
// no room left, and reports whether it did.
func (s *search) draw(idx int64) bool {
	if s.room() == 0 || s.drawn[idx] {
		return false
	}
	s.drawn[idx] = true
	s.batch = append(s.batch, idx)
	return true
}

// run is the one search loop. It alternates propose, which draws the next
// batch given the indices and costs of the last one (nil at first), with
// measuring that batch, and ends the run when early stopping fires, the
// budget is spent or every index has been drawn.
func (s *search) run(propose func(idxs []int64, costs []Cost) error) (Result, error) {
	var idxs []int64
	var costs []Cost
	for !s.result.Converged && s.room() > 0 {
		if err := propose(idxs, costs); err != nil {
			return s.result, err
		}
		idxs, costs = s.flush()
	}
	if !s.hasBest {
		return s.result, fmt.Errorf("autotune: no feasible configuration found in %d measurements", s.result.Measured)
	}
	return s.result, nil
}

// flush measures the batch as one and records it in order, up to where
// early stopping fires. It returns the batch's indices and their costs.
func (s *search) flush() ([]int64, []Cost) {
	idxs := s.batch
	if len(idxs) == 0 {
		return nil, nil
	}
	s.batch = nil
	cfgs := make([]Config, len(idxs))
	for i, idx := range idxs {
		cfgs[i] = s.space.At(idx)
	}
	costs := s.measurer.MeasureBatch(cfgs)
	for i := 0; i < len(cfgs) && !s.result.Converged; i++ {
		s.record(Trial{Config: cfgs[i], Cost: costs[i]})
	}
	return idxs, costs
}

func (s *search) record(t Trial) {
	s.result.Trials = append(s.result.Trials, t)
	s.result.Measured++
	if !t.Cost.IsInfeasible() && (!s.hasBest || t.Cost.Less(s.result.Best.Cost)) {
		s.result.Best, s.hasBest, s.sinceBest = t, true, 0
		return
	}
	if s.hasBest { // early stopping waits for the first feasible trial
		s.sinceBest++
	}
	s.result.Converged = s.stop > 0 && s.sinceBest >= s.stop
}

// GridSearch exhaustively measures every configuration — the strategy used
// for Figure 10's globally optimal/suboptimal mappings ("an exhaustive
// grid-search over the whole mapping space").
type GridSearch struct{}

// Tune implements Tuner.
func (GridSearch) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	// Exhaustive: the whole space is the budget, and nothing stops it early.
	opts.Trials, opts.EarlyStopping = int(space.Size()), 0
	s, err := newSearch("grid search", space, measure, opts)
	if err != nil {
		return Result{}, err
	}
	var next int64
	return s.run(func([]int64, []Cost) error {
		for ; len(s.batch) < measureChunk && s.draw(next); next++ {
		}
		return nil
	})
}

// Worst returns the highest-cost feasible trial of a result — the
// "suboptimal mapping" curve of Figure 10.
func Worst(r Result) (Trial, bool) {
	var worst Trial
	found := false
	for _, t := range r.Trials {
		if t.Cost.IsInfeasible() {
			continue
		}
		if !found || worst.Cost.Less(t.Cost) {
			worst = t
			found = true
		}
	}
	return worst, found
}

// RandomSearch samples configurations uniformly without replacement (up to
// the trial budget).
type RandomSearch struct{}

// Tune implements Tuner.
func (RandomSearch) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	s, err := newSearch("random search", space, measure, opts)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	return s.run(func([]int64, []Cost) error {
		for len(s.batch) < measureChunk && s.room() > 0 {
			for !s.draw(rng.Int63n(s.size)) {
			}
		}
		return nil
	})
}
