package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/autotune"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// tuneEnv is tune_alexnet_cycles: one client tuning the AlexNet layer
// geometries on default MAERI with autotune.XGBTuner, cycles target, every
// trial a dry-run job through one shared farm.
//
// The paper's settings are 600 trials with early stopping after 120. This
// repository's tracker counts infeasible mappings as "no improvement", and
// most random conv mappings need more than 128 multipliers, so roughly one
// conv search in ten stops after 120 infeasible trials with "no feasible
// configuration found". A workload may not contain failing operations, so
// the benchmark keeps the 600-trial budget and disables early stopping;
// README records the observation.
type tuneEnv struct {
	o      options
	cfg    config.HWConfig
	fm     *farm.Farm
	layers []models.LayerSpec
	spaces []*autotune.Space
	basic  []stats.Stats // dry-run statistics of the basic mapping per layer

	mu       sync.Mutex
	best     map[int][]autotune.Trial // pass -> best trial per layer
	pass0    []autotune.Result        // pass-0 search results, for the oracle and the ladder
	measured [2]searchTotals          // traced searches: conv, fc
}

type searchTotals struct {
	trials          int
	search, measure time.Duration
}

func newTuneEnv(o options) (*tuneEnv, error) {
	e := &tuneEnv{o: o, cfg: config.Default(config.MAERIDenseWorkload), fm: farm.New(runtime.GOMAXPROCS(0)),
		best: map[int][]autotune.Trial{}}
	all := models.AlexNetLayers()
	for _, li := range o.Preset.TuneLayers {
		l := all[li]
		e.layers = append(e.layers, l)
		var sp *autotune.Space
		job := e.job(l, mapping.Basic(), mapping.BasicFC())
		if l.Op == graph.OpConv2D {
			var err error
			if sp, err = autotune.ConvMappingSpace(l.Conv, e.cfg.MSSize); err != nil {
				return nil, err
			}
		} else {
			sp = autotune.FCMappingSpace(l.K, l.N, e.cfg.MSSize)
		}
		e.spaces = append(e.spaces, sp)
		res, err := farm.Run(job)
		if err != nil {
			return nil, fmt.Errorf("basic mapping of %s: %w", l.Name, err)
		}
		e.basic = append(e.basic, res.Stats)
	}
	e.pass0 = make([]autotune.Result, len(e.layers))
	if o.Preset.WarmUp {
		// The warm-up pass fills the farm's result cache with the FC layers'
		// whole (320-point) mapping spaces; conv spaces are far too large to
		// fill, so their trials stay misses in the window.
		for li := range e.layers {
			if out := e.request(0, li-len(e.layers), nil); out.failed > 0 {
				e.close()
				return nil, fmt.Errorf("warm-up search of %s failed", e.layers[li].Name)
			}
		}
	}
	return e, nil
}

// job is the dry-run job the farm measurers submit for a mapping.
func (e *tuneEnv) job(l models.LayerSpec, cm mapping.ConvMapping, fm mapping.FCMapping) farm.Job {
	if l.Op == graph.OpConv2D {
		return farm.Job{HW: e.cfg, Kind: farm.Conv2D, Dims: l.Conv, ConvMapping: cm, DryRun: true}
	}
	return farm.Job{HW: e.cfg, Kind: farm.Dense, FCMapping: fm, M: l.M, K: l.K, N: l.N, DryRun: true}
}

func (e *tuneEnv) trialJob(li int, c autotune.Config) farm.Job {
	l := e.layers[li]
	if l.Op == graph.OpConv2D {
		return e.job(l, autotune.ConvMappingOf(c), mapping.FCMapping{})
	}
	return e.job(l, mapping.ConvMapping{}, autotune.FCMappingOf(c))
}

func (e *tuneEnv) clients() int      { return 1 }
func (e *tuneEnv) kinds() int        { return len(e.layers) }
func (e *tuneEnv) minRequests() int  { return e.o.Preset.SimPasses * len(e.layers) }
func (e *tuneEnv) passRequests() int { return len(e.layers) }
func (e *tuneEnv) close()            { e.fm.Close() }

// timedMeasurer is the timing wrapper the benchmark passes in as the
// search's Measurer: it forwards to the farm measurer and records each
// batch as a child span of the search.
type timedMeasurer struct {
	inner  autotune.Measurer
	total  time.Duration
	record func(start time.Time, d time.Duration)
}

func (m *timedMeasurer) MeasureBatch(cfgs []autotune.Config) []autotune.Cost {
	start := time.Now()
	costs := m.inner.MeasureBatch(cfgs)
	d := time.Since(start)
	m.total += d
	if m.record != nil {
		m.record(start, d)
	}
	return costs
}

func (e *tuneEnv) measurer(li int, fm *farm.Farm) (autotune.Measurer, autotune.MeasureFunc) {
	l := e.layers[li]
	if l.Op == graph.OpConv2D {
		return autotune.FarmConvCycleMeasurer(fm, e.cfg, l.Conv), autotune.ConvCycleCost(e.cfg, l.Conv)
	}
	return autotune.FarmFCCycleMeasurer(fm, e.cfg, l.M, l.K, l.N), autotune.FCCycleCost(e.cfg, l.M, l.K, l.N)
}

// searchAttempts bounds how often a search is repeated with the next tuner
// seed after it found no feasible mapping.
const searchAttempts = 4

// search tunes layer li with the tuner seed of the given pass. Only 1.5 % of
// conv1's mapping space fits the 128 multipliers, so one conv1 search in
// eight thousand measures 600 infeasible mappings and returns "no feasible
// configuration found"; as a user would, the benchmark then searches again
// with the next seed. measured counts the trials of every attempt.
func (e *tuneEnv) search(li, pass int, m autotune.Measurer, serial autotune.MeasureFunc) (res autotune.Result, measured int, err error) {
	for a := 0; a < searchAttempts; a++ {
		res, err = autotune.XGBTuner{}.Tune(e.spaces[li], serial, autotune.Options{
			Trials: e.o.Preset.TuneTrials, Seed: opSeed(e.o.Seed, pass, li+100*a), Measurer: m})
		measured += res.Measured
		if err == nil || !allInfeasible(res.Trials) {
			break
		}
		fmt.Fprintf(os.Stderr, "benchmark: search of %s, pass %d, attempt %d: %v; searching again\n", e.layers[li].Name, pass, a, err)
	}
	return res, measured, err
}

func allInfeasible(trials []autotune.Trial) bool {
	for _, t := range trials {
		if !t.Cost.IsInfeasible() {
			return false
		}
	}
	return true
}

func (e *tuneEnv) request(_, i int, tr *tracer) outcome {
	n := len(e.layers)
	li := ((i % n) + n) % n
	pass := (i - li) / n // warm-up searches are pass -1
	inner, serial := e.measurer(li, e.fm)
	tm := &timedMeasurer{inner: inner}
	type batch struct {
		start time.Time
		d     time.Duration
	}
	var batches []batch
	if tr != nil {
		tm.record = func(start time.Time, d time.Duration) { batches = append(batches, batch{start, d}) }
	}
	start := time.Now()
	res, measured, err := e.search(li, pass, tm, serial)
	d := time.Since(start)
	out := outcome{ops: measured, kind: li}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: search of %s, pass %d: %v\n", e.layers[li].Name, pass, err)
		out.ops, out.failed = max(measured, 1), max(measured, 1)
		return out
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if pass >= 0 && pass < e.o.Preset.SimPasses {
		if e.best[pass] == nil {
			e.best[pass] = make([]autotune.Trial, n)
		}
		e.best[pass][li] = res.Best
	}
	if pass == 0 {
		e.pass0[li] = res
	}
	if tr != nil {
		op := tr.newOp()
		root := tr.add(0, op, "request", "XGBTuner.Tune "+e.layers[li].Name, "autotune", start, d)
		for _, b := range batches {
			tr.add(root, op, "request", "Measurer.MeasureBatch", "farm", b.start, b.d)
		}
		k := 0
		if e.layers[li].Op == graph.OpDense {
			k = 1
		}
		e.measured[k].trials += measured
		e.measured[k].search += d
		e.measured[k].measure += tm.total
	}
	return out
}

// bestStats returns the dry-run statistics of a best trial through the
// shared farm (a cache hit: the search measured it).
func (e *tuneEnv) bestStats(li int, t autotune.Trial) stats.Stats {
	res, err := e.fm.Do(e.trialJob(li, t.Config))
	if err != nil {
		return stats.Stats{}
	}
	return res.Stats
}

// simTotals averages, over the first SimPasses passes, the statistics of
// the best mapping found per layer, summed over layers: tuning quality. One
// pass alone swings by a sixth from seed to seed.
func (e *tuneEnv) simTotals() simTotals {
	e.mu.Lock()
	defer e.mu.Unlock()
	var t simTotals
	for p := 0; p < e.o.Preset.SimPasses; p++ { // in pass order: the sums are floats
		for li, tr := range e.best[p] {
			t.add(e.bestStats(li, tr))
		}
	}
	return t.over(max(len(e.best), 1))
}

// verify checks (a) that the farmed search of one layer logged exactly the
// trials a serial search (no Measurer) logs, and (b) that eight sampled
// pass-0 trials measured through the farm equal farm.Run on the step-loop
// reference engine.
func (e *tuneEnv) verify() (checked, bad int, notes []string) {
	li := 0
	farmed := e.pass0[li]
	_, serialCost := e.measurer(li, e.fm)
	serial, _, err := e.search(li, 0, nil, serialCost)
	checked++
	switch {
	case err != nil:
		bad++
		notes = append(notes, "serial search: "+err.Error())
	case len(serial.Trials) != len(farmed.Trials):
		bad++
		notes = append(notes, fmt.Sprintf("serial search logged %d trials, farmed %d", len(serial.Trials), len(farmed.Trials)))
	default:
		for i := range serial.Trials {
			a, b := serial.Trials[i], farmed.Trials[i]
			if a.Cost != b.Cost || fmt.Sprint(a.Config.Values()) != fmt.Sprint(b.Config.Values()) {
				bad++
				notes = append(notes, fmt.Sprintf("trial %d differs between the serial and the farmed search", i))
				break
			}
		}
	}
	sampled := 0
	for _, t := range farmed.Trials {
		if t.Cost.IsInfeasible() || t.Cost.Primary > 4*farmed.Best.Cost.Primary {
			continue // the step loop of a poor mapping runs for seconds
		}
		if sampled++; sampled > 8 {
			break
		}
		checked++
		job := e.trialJob(li, t.Config)
		front, err1 := e.fm.Do(job)
		job.Reference = true
		ref, err2 := farm.Run(job)
		if err1 != nil || err2 != nil || front.Stats != ref.Stats || float64(ref.Stats.Cycles) != t.Cost.Primary {
			bad++
			notes = append(notes, fmt.Sprintf("trial %v differs from the reference engine", t.Config))
		}
	}
	return checked, bad, notes
}

func (e *tuneEnv) counters() map[string]float64 {
	st := e.fm.Stats()
	return map[string]float64{
		"farm.submitted":     float64(st.Submitted),
		"farm.hits":          float64(st.Hits),
		"farm.disk_hits":     float64(st.DiskHits),
		"farm.deduped":       float64(st.Deduped),
		"farm.mem_evictions": float64(st.Memory.Evictions),
		"pack.hits":          float64(st.Pack.Hits),
		"pack.misses":        float64(st.Pack.Misses),
	}
}

func (e *tuneEnv) layerMetrics(loopStats) map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := map[string]float64{}
	var search, measure time.Duration
	for k, name := range []string{"autotune.trials_per_s_conv", "autotune.trials_per_s_fc"} {
		if t := e.measured[k]; t.search > 0 {
			m[name] = float64(t.trials) / t.search.Seconds()
		}
		search += e.measured[k].search
		measure += e.measured[k].measure
	}
	if search > 0 {
		m["autotune.measure_share"] = float64(measure) / float64(search)
	}
	var speed [2]float64
	var count [2]int
	for p := 0; p < e.o.Preset.SimPasses; p++ {
		for li, t := range e.best[p] {
			k := 0
			if e.layers[li].Op == graph.OpDense {
				k = 1
			}
			speed[k] += float64(e.basic[li].Cycles) / t.Cost.Primary
			count[k]++
		}
	}
	for k, name := range []string{"autotune.speedup_conv_x", "autotune.speedup_fc_x"} {
		if count[k] > 0 {
			m[name] = speed[k] / float64(count[k])
		}
	}
	return m
}

// ladder replays sampled pass-0 trials one at a time: the farm measurer on a
// single config ⊃ Farm.Do ⊃ farm.Run of the dry-run job ⊃ {the MAERI engine
// in DryRun mode, and — dense only — the zeroed operand tensors farm.Run
// allocates per trial}. FC trials replay memory-warm (the warm-up pass
// caches their whole spaces), conv trials cold on fresh farms. The search
// loop itself (autotune + xgboost) is the traced searches' time outside
// MeasureBatch, added as one root per layer.
func (e *tuneEnv) ladder(tr *tracer) error {
	perLayer := max(e.o.Preset.LadderOps/len(e.layers), 1)
	for li, l := range e.layers {
		var picked []autotune.Trial
		for _, t := range e.pass0[li].Trials {
			if !t.Cost.IsInfeasible() && len(picked) < perLayer {
				picked = append(picked, t)
			}
		}
		batchFarm, doFarm := farm.New(1), farm.New(1)
		defer batchFarm.Close()
		defer doFarm.Close()
		warm := l.Op == graph.OpDense
		m, _ := e.measurer(li, batchFarm)
		for _, t := range picked {
			job := e.trialJob(li, t.Config)
			state := "cold"
			if warm {
				state = "memory-warm"
				for _, f := range []*farm.Farm{batchFarm, doFarm} {
					if _, err := f.Do(job); err != nil {
						return err
					}
				}
			}
			op := tr.newOp()
			root, _ := tr.timed(0, op, "ladder", "farm measurer MeasureBatch of one "+l.Name+" trial ("+state+")", "autotune", func() {
				m.MeasureBatch([]autotune.Config{t.Config})
			})
			var err error
			do, _ := tr.timed(root, op, "ladder", "Farm.Do ("+state+")", "farm", func() { _, err = doFarm.Do(job) })
			if err != nil {
				return err
			}
			if warm {
				continue
			}
			run, _ := tr.timed(do, op, "ladder", "farm.Run (dry run)", "farm", func() { _, err = farm.Run(job) })
			if err != nil {
				return err
			}
			if err := e.engineSpans(tr, run, op, job); err != nil {
				return err
			}
		}
	}
	// The search loop's own time, from the traced window.
	e.mu.Lock()
	defer e.mu.Unlock()
	for k, name := range []string{"conv", "fc"} {
		t := e.measured[k]
		if t.search <= t.measure || t.trials == 0 {
			continue
		}
		// Scale to the replayed trial count so loop and trials weigh as they
		// do in a search.
		perTrial := (t.search - t.measure) / time.Duration(t.trials)
		n := 0
		for li, l := range e.layers {
			if (l.Op == graph.OpDense) == (k == 1) {
				n += min(perLayer, len(e.pass0[li].Trials))
			}
		}
		tr.add(0, tr.newOp(), "ladder", "XGBTuner search loop outside MeasureBatch ("+name+")", "autotune", time.Now(), perTrial*time.Duration(n))
	}
	return nil
}

// engineSpans times what farm.Run does for a dry-run job: a fresh MAERI
// engine in DryRun mode and, for dense jobs, two zeroed operand tensors.
func (e *tuneEnv) engineSpans(tr *tracer, parent, op int, job farm.Job) error {
	var err error
	if job.Kind == farm.Dense {
		var in, w *tensor.Tensor
		tr.timed(parent, op, "ladder", "tensor.New operands (dry-run dense)", "tensor", func() {
			in, w = tensor.New(job.M, job.K), tensor.New(job.N, job.K)
		})
		tr.timed(parent, op, "ladder", "maeri.Engine.Dense (DryRun)", "stonne", func() {
			var eng *maeri.Engine
			if eng, err = maeri.NewEngine(e.cfg); err == nil {
				eng.DryRun = true
				_, _, err = eng.Dense(in, w, job.FCMapping)
			}
		})
		return err
	}
	tr.timed(parent, op, "ladder", "maeri.Engine.Conv2D (DryRun)", "stonne", func() {
		var eng *maeri.Engine
		if eng, err = maeri.NewEngine(e.cfg); err == nil {
			eng.DryRun = true
			_, _, err = eng.Conv2D(nil, nil, job.Dims, job.ConvMapping)
		}
	})
	return err
}
