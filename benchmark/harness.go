package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/stonne/stats"
)

// preset sizes a run. "full" is what every claim is measured with; "smoke"
// shrinks the inputs so the harness test can exercise every code path in a
// few seconds.
type preset struct {
	Name string

	// HitBatches is sweep_hit_mixed's working set; MemEntries the bound of
	// its memory tier (half the working set's rows).
	HitBatches, MemEntries int
	// TuneLayers indexes models.AlexNetLayers(); TuneTrials is the budget
	// per search; SimPasses how many leading passes the exact tuning
	// metrics average.
	TuneLayers []int
	TuneTrials int
	SimPasses  int
	// WarmUp runs one untimed pass during set-up.
	WarmUp bool
	// SetupReps and SetupBudget bound how often set-up is repeated for the
	// setup_s median: stop after SetupReps or once SetupBudget is spent.
	SetupReps   int
	SetupBudget time.Duration
	// LadderOps caps the ops the ladder replays; ProbeReps the repetitions
	// behind each probe's median.
	LadderOps, ProbeReps int
	// TraceSegments is how many alternating control/traced segments the
	// traced pass cuts its window into.
	TraceSegments int
}

var presets = map[string]preset{
	"full": {Name: "full", HitBatches: 64, MemEntries: 1024, TuneLayers: []int{0, 1, 2, 3, 4, 5, 6, 7}, TuneTrials: 600, SimPasses: 16,
		WarmUp: true, SetupReps: 5, SetupBudget: 3 * time.Second, LadderOps: 64, ProbeReps: 33, TraceSegments: 4},
	"smoke": {Name: "smoke", HitBatches: 4, MemEntries: 64, TuneLayers: []int{2, 7}, TuneTrials: 600, SimPasses: 2,
		WarmUp: false, SetupReps: 1, LadderOps: 8, ProbeReps: 3, TraceSegments: 2},
}

// options selects one workload run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Preset   preset
	OutDir   string
}

// outcome is what one closed-loop request reports back to the loop.
type outcome struct {
	ops, failed int
	kind        int
	firstRow    time.Duration // time to the first streamed row; 0 when not streamed
}

// simTotals are the exact simulated statistics of a run.
type simTotals struct {
	cycles, macs, psums float64
	utilization         float64
	capacity            float64 // cycles x multipliers, the utilization's denominator
}

// add accumulates one simulated op.
func (t *simTotals) add(s stats.Stats) {
	t.cycles += float64(s.Cycles)
	t.macs += float64(s.MACs)
	t.psums += float64(s.SpatialPsums)
	t.capacity += float64(s.Cycles) * float64(s.Multipliers)
}

// over finishes the totals as a mean over n passes.
func (t simTotals) over(n int) simTotals {
	if t.capacity > 0 {
		t.utilization = t.macs / t.capacity
	}
	t.cycles /= float64(n)
	t.macs /= float64(n)
	t.psums /= float64(n)
	return t
}

// env is one workload's environment: everything set-up builds and the
// closed-loop clients drive.
type env interface {
	clients() int
	kinds() int
	// request performs request i of client c and waits for its reply. With
	// a tracer it also records the request's spans.
	request(c, i int, tr *tracer) outcome
	// minRequests is how many requests each client must finish before the
	// window may end, so the exact metrics always cover the same ops.
	minRequests() int
	// passRequests is how many requests of one client make a pass; a window
	// only ends on a pass boundary, so it always holds the request kinds
	// (controllers, layers) in equal numbers.
	passRequests() int
	simTotals() simTotals
	// verify runs the correctness oracle after the window.
	verify() (checked, mismatches int, notes []string)
	// counters snapshots the layer counters the traced pass reports as
	// deltas over its window.
	counters() map[string]float64
	// layerMetrics returns the per-layer metrics the workload derives from
	// its own traced traffic (st is the traced half of the window).
	layerMetrics(st loopStats) map[string]float64
	// ladder replays sampled pass-0 ops rung by rung into tr.
	ladder(tr *tracer) error
	close()
}

// Result is everything one run measured. The driver's result line carries a
// subset; the suite reads the whole of it from the -result file.
type Result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Preset    string             `json:"preset"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples records how many observations stand behind a metric.
	Samples map[string]int `json:"samples,omitempty"`
	Notes   []string       `json:"notes,omitempty"`
}

// loopStats is what one timed segment of closed-loop traffic measured.
type loopStats struct {
	ops, failed int
	lat         [][]float64 // per kind, milliseconds
	firstRow    []float64   // milliseconds
	allocBytes  uint64
	// sliceOps and sliceCPU cut the segment into equal time slices: the ops
	// in progress in each (a pass's ops spread evenly over the pass) and the
	// CPU time the process used in it.
	sliceOps, sliceCPU []float64
	sliceLen           time.Duration
}

// windowSlices is how many slices a timed segment is cut into. Throughput
// and CPU per op are medians over the slices, so a stall of a second or two
// on a shared machine moves one slice, not the figure.
const windowSlices = 10

// passSpan is one client's pass: when it began and ended and the ops it
// completed.
type passSpan struct {
	start, end time.Time
	ops        int
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runLoop drives e's closed-loop clients for at least d, at least
// e.minRequests() requests per client and up to the next pass boundary,
// starting each client at request index from[c]; it returns the next index
// per client.
func runLoop(e env, d time.Duration, from []int, tr *tracer) (loopStats, []int) {
	n := e.clients()
	st := loopStats{lat: make([][]float64, e.kinds()), sliceLen: d / windowSlices}
	next := make([]int, n)
	passes := make([][]passSpan, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)

	// Sample the process's CPU time at every slice boundary.
	cpuAt := make([]time.Duration, 1, windowSlices+1)
	cpuAt[0] = cpuTime()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= windowSlices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * st.sliceLen)))
			cpuAt = append(cpuAt, cpuTime())
		}
	}()

	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := from[c]
			for ; i < e.minRequests() || i%e.passRequests() != 0 || time.Now().Before(deadline); i++ {
				t := time.Now()
				o := e.request(c, i, tr)
				end := time.Now()
				if i%e.passRequests() == 0 || len(passes[c]) == 0 {
					passes[c] = append(passes[c], passSpan{start: t})
				}
				p := &passes[c][len(passes[c])-1]
				p.end, p.ops = end, p.ops+o.ops
				mu.Lock()
				st.ops += o.ops
				st.failed += o.failed
				st.lat[o.kind] = append(st.lat[o.kind], float64(end.Sub(t))/1e6)
				if o.firstRow > 0 {
					st.firstRow = append(st.firstRow, float64(o.firstRow)/1e6)
				}
				mu.Unlock()
			}
			next[c] = i
		}(c)
	}
	wg.Wait()
	<-sampled
	runtime.ReadMemStats(&ms1)
	st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	st.sliceOps, st.sliceCPU = make([]float64, windowSlices), make([]float64, windowSlices)
	for k := range st.sliceOps {
		a, b := start.Add(time.Duration(k)*st.sliceLen), start.Add(time.Duration(k+1)*st.sliceLen)
		st.sliceCPU[k] = float64(cpuAt[k+1] - cpuAt[k])
		for _, ps := range passes {
			for _, p := range ps {
				lo, hi := p.start, p.end
				if lo.Before(a) {
					lo = a
				}
				if hi.After(b) {
					hi = b
				}
				if hi.After(lo) {
					st.sliceOps[k] += float64(p.ops) * float64(hi.Sub(lo)) / float64(p.end.Sub(p.start))
				}
			}
		}
	}
	return st, next
}

// merge adds another segment's measurements to s.
func (s *loopStats) merge(o loopStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.allocBytes += o.allocBytes
	s.sliceOps = append(s.sliceOps, o.sliceOps...)
	s.sliceCPU = append(s.sliceCPU, o.sliceCPU...)
	s.sliceLen = o.sliceLen
	s.firstRow = append(s.firstRow, o.firstRow...)
	if s.lat == nil {
		s.lat = make([][]float64, len(o.lat))
	}
	for k := range o.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
}

// opsPerS is the median over the slices of ops in progress per second.
func (s loopStats) opsPerS() float64 { return median(s.sliceOps) / s.sliceLen.Seconds() }

// cpuMSPerOp is the median over the slices of CPU milliseconds per op.
func (s loopStats) cpuMSPerOp() float64 {
	per := make([]float64, 0, len(s.sliceOps))
	for k, ops := range s.sliceOps {
		if ops > 0 {
			per = append(per, s.sliceCPU[k]/1e6/ops)
		}
	}
	return median(per)
}

// p50 is the median request latency; with several request kinds it is the
// mean of the per-kind medians, so a window that happens to hold one more
// request of the slow kind does not flip the figure.
func (s loopStats) p50() (float64, int) {
	var sum float64
	kinds, n := 0, 0
	for _, l := range s.lat {
		if len(l) == 0 {
			continue
		}
		sum += quantile(l, 0.5)
		kinds++
		n += len(l)
	}
	if kinds == 0 {
		return 0, 0
	}
	return sum / float64(kinds), n
}

func (s loopStats) allLat() []float64 {
	var all []float64
	for _, l := range s.lat {
		all = append(all, l...)
	}
	return all
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianDur times f reps times and returns the median, in the given unit.
func medianDur(reps int, unit time.Duration, f func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = float64(time.Since(t)) / float64(unit)
	}
	return median(xs)
}

// opSeed derives the operand seed of a group of ops in a pass. Pass 0 is
// fully determined by the run's seed.
func opSeed(seed int64, pass, group int) int64 {
	return seed*1_000_000_000 + int64(pass)*1_000 + int64(group)
}

// scratch hands out directories under <out>/tmp that are removed at exit:
// disk tiers and journals must live inside the checkout.
type scratch struct {
	root string
	n    int
}

func newScratch(outDir string) (*scratch, error) {
	root := filepath.Join(outDir, "tmp", fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &scratch{root: root}, nil
}

func (s *scratch) dir(name string) string {
	s.n++
	d := filepath.Join(s.root, fmt.Sprintf("%03d-%s", s.n, name))
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(err) // the scratch root was just created by this process
	}
	return d
}

func (s *scratch) remove() { os.RemoveAll(s.root) }

// buildEnv constructs the named workload's environment.
func buildEnv(o options, sc *scratch) (env, error) {
	switch o.Workload {
	case "alexnet_e2e":
		return newAlexEnv(o)
	case "sweep_miss_small":
		return newSweepEnv(o, sc, modeMiss)
	case "sweep_hit_mixed":
		return newSweepEnv(o, sc, modeHit)
	case "cluster_sweep_r2":
		return newSweepEnv(o, sc, modeCluster)
	case "tune_alexnet_cycles":
		return newTuneEnv(o)
	}
	return nil, fmt.Errorf("unknown workload %q", o.Workload)
}

// runWorkload performs one run: set-up (repeated for the setup_s median),
// the timed window, the oracle and — traced — the ladder and the probes.
func runWorkload(o options) (*Result, error) {
	sc, err := newScratch(o.OutDir)
	if err != nil {
		return nil, err
	}
	defer sc.remove()

	reps, budget := o.Preset.SetupReps, o.Preset.SetupBudget
	if o.Trace {
		reps = 1 // setup_s is an end-to-end metric; the traced pass does not report it
	}
	var (
		e      env
		setups []float64
		spent  time.Duration
	)
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		t := time.Now()
		e, err = buildEnv(o, sc)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t)
		setups = append(setups, d.Seconds())
		if spent += d; spent >= budget {
			break
		}
	}
	defer e.close()

	res := &Result{Workload: o.Workload, Trace: o.Trace, Seed: o.Seed, Seconds: o.Seconds, Preset: o.Preset.Name,
		Metrics: map[string]float64{}, Samples: map[string]int{}}
	window := time.Duration(o.Seconds * float64(time.Second))
	from := make([]int, e.clients())

	if !o.Trace {
		st, _ := runLoop(e, window, from, nil)
		checked, bad, notes := e.verify()
		res.Notes = notes
		res.Attempted = int64(st.ops + checked)
		res.Failed = int64(st.failed + bad)
		p50, n := st.p50()
		sim := e.simTotals()
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["ops_per_s"] = st.opsPerS()
		res.Metrics["request_p50_ms"] = p50
		res.Metrics["cpu_ms_per_op"] = st.cpuMSPerOp()
		res.Metrics["failed_ratio"] = float64(res.Failed) / float64(max(res.Attempted, 1))
		res.Metrics["sim_cycles_total"] = sim.cycles
		res.Metrics["peak_rss_mb"] = peakRSSMB()
		res.Samples["setup_s"] = len(setups)
		res.Samples["request_p50_ms"] = n
		res.Samples["ops_per_s"] = st.ops
		res.Correct = res.Failed == 0 && st.ops > 0
		return res, nil
	}

	// Traced pass: the window alternates untraced (control) and traced
	// segments, so cache warmth drifting over the window weighs on both
	// alike; their throughput ratio is the tracing overhead.
	tr := newTracer()
	var control, traced loopStats
	before, after := map[string]float64{}, map[string]float64{}
	segment := window / time.Duration(o.Preset.TraceSegments)
	for q := 0; q < o.Preset.TraceSegments; q++ {
		if q%2 == 0 {
			var st loopStats
			st, from = runLoop(e, segment, from, nil)
			control.merge(st)
			continue
		}
		b := e.counters()
		var st loopStats
		st, from = runLoop(e, segment, from, tr)
		traced.merge(st)
		for k, v := range e.counters() {
			before[k] += b[k]
			after[k] += v
		}
	}
	checked, bad, notes := e.verify()
	res.Notes = notes
	res.Attempted = int64(control.ops + traced.ops + checked)
	res.Failed = int64(control.failed + traced.failed + bad)
	res.Correct = res.Failed == 0 && traced.ops > 0

	for _, m := range perLayer {
		res.Metrics[m.Name] = 0
	}
	for k, v := range e.layerMetrics(traced) {
		res.Metrics[k] = v
	}
	deltaMetrics(res.Metrics, before, after, traced.ops)
	sim := e.simTotals()
	res.Metrics["stonne.sim_macs_total"] = sim.macs
	res.Metrics["stonne.sim_psums_total"] = sim.psums
	res.Metrics["stonne.ms_utilization"] = sim.utilization
	res.Metrics["tensor.alloc_kb_per_op"] = float64(traced.allocBytes) / 1024 / float64(max(traced.ops, 1))
	all := traced.allLat()
	res.Metrics["serve.request_p95_ms"] = quantile(all, 0.95)
	res.Metrics["serve.request_p99_ms"] = quantile(all, 0.99)
	res.Metrics["serve.first_row_ms_p50"] = median(traced.firstRow)
	res.Samples["serve.request_p99_ms"] = len(all)
	res.Metrics["telemetry.trace_overhead_ratio"] = traced.opsPerS() / control.opsPerS()
	// Kept beside the per-layer metrics so the exact figures of a traced and
	// an untraced invocation can be compared.
	res.Metrics["sim_cycles_total"] = sim.cycles

	if err := e.ladder(tr); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for layer, share := range tr.selfShares() {
		res.Metrics[layer+".self_share"] = share
	}
	if err := runProbes(o, sc, res.Metrics); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := tr.write(o.OutDir, o.Workload); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", name, v)
		}
	}
	return res, nil
}

// deltaMetrics turns the counter snapshots around the traced window into
// the ratio metrics defined on them.
func deltaMetrics(m, before, after map[string]float64, ops int) {
	d := func(k string) float64 { return after[k] - before[k] }
	ratio := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	m["tensor.pack_hit_ratio"] = ratio(d("pack.hits"), d("pack.hits")+d("pack.misses"))
	sub := d("farm.submitted")
	m["farm.mem_hit_ratio"] = ratio(d("farm.hits")-d("farm.disk_hits"), sub)
	m["farm.disk_hit_ratio"] = ratio(d("farm.disk_hits"), sub)
	m["farm.dedup_ratio"] = ratio(d("farm.deduped"), sub)
	m["farm.evictions_per_op"] = ratio(d("farm.mem_evictions"), float64(ops))
	m["farm.replica_writes_per_op"] = ratio(d("farm.replica_writes"), float64(ops))
	m["serve.error_rows"] = d("serve.error_rows")
	lo, hi := math.Inf(1), 0.0
	for k := range after {
		if strings.HasPrefix(k, "peer_rows.") {
			lo, hi = min(lo, d(k)), max(hi, d(k))
		}
	}
	if hi > 0 {
		m["serve.peer_balance"] = lo / hi
	}
}
