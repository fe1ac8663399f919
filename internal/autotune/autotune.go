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

// fromGenome converts per-knob option indices to a Config.
func (s *Space) fromGenome(genome []int) Config {
	values := make([]int, len(s.Knobs))
	for i, g := range genome {
		values[i] = s.Knobs[i].Values[g]
	}
	return Config{space: s, values: values}
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
	// improvement; 0 disables it.
	EarlyStopping int
	Seed          int64

	// Measurer, when set, evaluates measurement batches (typically in
	// parallel via the simulation farm); the per-config MeasureFunc is then
	// only the serial fallback. Results are identical either way — only
	// wall-clock time changes.
	Measurer Measurer
}

// measureEach evaluates cfgs and feeds each cost to record in order,
// stopping (and returning true) as soon as record asks to. With a Measurer
// the whole batch is evaluated up front — possibly concurrently — and only
// the recording stops early; without one, each configuration is measured
// and recorded one at a time, so early stopping never pays for
// measurements the serial tuners would not have run.
func (o Options) measureEach(f MeasureFunc, cfgs []Config, record func(i int, c Cost) bool) bool {
	if o.Measurer != nil {
		for i, c := range o.Measurer.MeasureBatch(cfgs) {
			if record(i, c) {
				return true
			}
		}
		return false
	}
	for i, cfg := range cfgs {
		if record(i, f(cfg)) {
			return true
		}
	}
	return false
}

// measureChunk is the batch granularity the tuners use when a Measurer is
// present; large enough to keep a worker pool busy, small enough that early
// stopping does not overshoot by much.
const measureChunk = 64

// Tuner is a search strategy over a Space.
type Tuner interface {
	Tune(space *Space, measure MeasureFunc, opts Options) (Result, error)
}

// tracker accumulates trials and handles early stopping.
type tracker struct {
	result    Result
	sinceBest int
	stop      int
	hasBest   bool
}

func newTracker(stop int) *tracker { return &tracker{stop: stop} }

// record returns true when the search should stop.
func (t *tracker) record(tr Trial) bool {
	t.result.Trials = append(t.result.Trials, tr)
	t.result.Measured++
	if !tr.Cost.IsInfeasible() && (!t.hasBest || tr.Cost.Less(t.result.Best.Cost)) {
		t.result.Best = tr
		t.hasBest = true
		t.sinceBest = 0
		return false
	}
	t.sinceBest++
	if t.stop > 0 && t.sinceBest >= t.stop {
		t.result.Converged = true
		return true
	}
	return false
}

func (t *tracker) finish() (Result, error) {
	if !t.hasBest {
		return t.result, fmt.Errorf("autotune: no feasible configuration found in %d measurements", t.result.Measured)
	}
	return t.result, nil
}

// GridSearch exhaustively measures every configuration — the strategy used
// for Figure 10's globally optimal/suboptimal mappings ("an exhaustive
// grid-search over the whole mapping space").
type GridSearch struct{}

// Tune implements Tuner.
func (GridSearch) Tune(space *Space, measure MeasureFunc, opts Options) (Result, error) {
	tr := newTracker(0) // exhaustive: ignore early stopping and budget
	size := space.Size()
	for start := int64(0); start < size; start += measureChunk {
		end := start + measureChunk
		if end > size {
			end = size
		}
		cfgs := make([]Config, 0, end-start)
		for i := start; i < end; i++ {
			cfgs = append(cfgs, space.At(i))
		}
		opts.measureEach(measure, cfgs, func(i int, cost Cost) bool {
			tr.record(Trial{Config: cfgs[i], Cost: cost})
			return false // exhaustive: never stop early
		})
	}
	return tr.finish()
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
	if opts.Trials <= 0 {
		return Result{}, fmt.Errorf("autotune: random search needs a positive trial budget")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	tr := newTracker(opts.EarlyStopping)
	seen := make(map[int64]bool)
	size := space.Size()
	for tr.result.Measured < opts.Trials && int64(len(seen)) < size {
		// Draw the next chunk of unseen indices; the rng sequence is the
		// same as drawing one at a time, so batched and serial runs record
		// identical trial sequences.
		chunk := opts.Trials - tr.result.Measured
		if chunk > measureChunk {
			chunk = measureChunk
		}
		cfgs := make([]Config, 0, chunk)
		for len(cfgs) < chunk && int64(len(seen)) < size {
			var idx int64
			for {
				idx = rng.Int63n(size)
				if !seen[idx] {
					seen[idx] = true
					break
				}
			}
			cfgs = append(cfgs, space.At(idx))
		}
		if opts.measureEach(measure, cfgs, func(i int, cost Cost) bool {
			return tr.record(Trial{Config: cfgs[i], Cost: cost})
		}) {
			return tr.finish()
		}
	}
	return tr.finish()
}
