package main

import (
	"fmt"
	"regexp"
)

// Metric is one row of the benchmark's schema: what a number is called, its
// unit, which direction is better and, for end-to-end metrics, the share of
// the parent's median by which it may worsen before -compare (and the
// driver reading BENCHMARK.json) calls it a regression.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	// Layer is the repository module the metric attributes cost to; empty
	// for end-to-end metrics.
	Layer string `json:"layer,omitempty"`
	// Exact marks simulated or counted values that repeat bit for bit for a
	// given seed: -compare demands equality instead of applying Bound.
	Exact bool `json:"exact,omitempty"`
	// Contract marks the end-to-end metrics BENCHMARK.json lists (never 0,
	// steady across seeds). failed_ratio is reported through the result
	// line's attempted/failed counts instead.
	Contract bool   `json:"contract,omitempty"`
	Def      string `json:"definition"`
	// Moves says which end-to-end metric the layer metric should move, and
	// on which workload — written down before measuring.
	Moves string `json:"moves,omitempty"`
}

// endToEnd lists the metrics a user of the system sees, reported on every
// workload from the untraced pass.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Contract: true,
		Def: "median over the run's set-up repetitions of: build farms/servers, pre-populate caches, one warm-up pass"},
	{Name: "ops_per_s", Unit: "op/s", Better: "higher", Bound: 0.25, Contract: true,
		Def: "median over ten equal slices of the timed window of ops in progress per second (a pass's ops spread evenly over the pass), at the workload's fixed input sizes"},
	{Name: "request_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true,
		Def: "median client-observed request latency; workloads whose requests come in kinds (controller, layer) average the per-kind medians"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Contract: true,
		Def: "median over the same slices of (utime+stime, getrusage) / ops; includes the in-process load generator"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Contract: true,
		Def: "VmHWM of the workload's process after the window and the oracle"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0, Exact: true,
		Def: "(error rows + non-2xx + refused + oracle mismatches) / ops attempted; must be 0"},
	{Name: "sim_cycles_total", Unit: "cycles", Better: "lower", Bound: 0.15, Exact: true, Contract: true,
		Def: "simulated Stats.Cycles summed over pass 0 (tune_alexnet_cycles: best cycles per layer summed, averaged over the first passes); simulated time, not host time"},
}

// layers are this repository's modules, in stack order (outermost last).
var layers = []string{"tensor", "stonne", "api", "core", "autotune", "farm", "serve"}

// perLayer lists the metrics of single layers, reported by the traced pass.
// Metrics in the "probe" group are fixed-input micro-costs measured the same
// way on every workload; the others come from the workload's own traffic
// and read 0 where the workload bypasses the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []Metric {
	var ms []Metric
	for _, l := range layers {
		ms = append(ms, Metric{Name: l + ".self_share", Unit: "ratio", Better: "lower", Layer: l,
			Def:   "layer self time / request time over the ladder replay of the workload's pass-0 ops; the seven shares sum to 1",
			Moves: "shows where a request's busy time goes on this workload"})
	}
	add := func(layer, name, unit, better, def, moves string, exact bool) {
		ms = append(ms, Metric{Name: layer + "." + name, Unit: unit, Better: better, Layer: layer, Def: def, Moves: moves, Exact: exact})
	}
	const (
		alex = "alexnet_e2e"
		miss = "sweep_miss_small"
		hit  = "sweep_hit_mixed"
		tune = "tune_alexnet_cycles"
		clus = "cluster_sweep_r2"
	)
	// tensor
	add("tensor", "gemm_gflops", "GF/s", "higher", "probe: 2*256^3 flops / median time of tensor.GEMM on 256x256 operands", "ops_per_s, request_p50_ms -> "+alex+"; none -> "+hit, false)
	add("tensor", "conv_implicit_us", "us", "lower", "probe: median tensor.ConvGEMMImplicitCached on the standard conv row", "ops_per_s, request_p50_ms -> "+alex+"; none -> "+hit, false)
	add("tensor", "layout_us", "us", "lower", "probe: median NCHW->NHWC + KCRS->RSCK + NPQK->NKPQ of the standard conv row", "ops_per_s -> "+alex+", "+miss+"; none -> "+hit, false)
	add("tensor", "random_us", "us", "lower", "probe: median operand generation (RandomUniform x2) of the standard conv row", "request_p50_ms -> "+hit, false)
	add("tensor", "pack_hit_ratio", "ratio", "higher", "PackCache hits / lookups from farm.Stats().Pack over the traced window (0 without a farm)", "ops_per_s -> "+miss, false)
	add("tensor", "alloc_kb_per_op", "KB", "lower", "process TotalAlloc delta over the traced window / ops", "peak_rss_mb, cpu_ms_per_op -> "+tune+", "+alex, false)
	// stonne
	add("stonne", "maeri_model_ms", "ms", "lower", "median full-AlexNet Session.Run on MAERI (0 off "+alex+")", "request_p50_ms -> "+alex, false)
	add("stonne", "sigma_model_ms", "ms", "lower", "median full-AlexNet Session.Run on SIGMA at 50 % sparsity (0 off "+alex+")", "request_p50_ms -> "+alex, false)
	add("stonne", "maeri_row_us", "us", "lower", "probe: median stonne.New + Simulator.Conv2D on the standard conv row", "ops_per_s -> "+miss, false)
	add("stonne", "sigma_row_us", "us", "lower", "probe: median stonne.New + Simulator.GEMMStats on the standard conv row, 50 % sparse", "ops_per_s -> "+miss, false)
	add("stonne", "tpu_row_us", "us", "lower", "probe: median stonne.New + Simulator.GEMMStats on the standard conv row", "ops_per_s -> "+miss, false)
	add("stonne", "new_us", "us", "lower", "probe: median stonne.New(default MAERI config)", "ops_per_s -> "+miss, false)
	add("stonne", "dryrun_conv_us", "us", "lower", "probe: median farm.Run of a DryRun conv3-geometry job", "ops_per_s -> "+tune, false)
	add("stonne", "dryrun_dense_us", "us", "lower", "probe: median farm.Run of a DryRun fc1-geometry job", "ops_per_s, setup_s -> "+tune, false)
	add("stonne", "sim_macs_total", "count", "lower", "simulated Stats.MACs summed like sim_cycles_total", "modelled-design number; must not move unless a PR changes the model", true)
	add("stonne", "sim_psums_total", "count", "lower", "simulated Stats.SpatialPsums summed like sim_cycles_total", "modelled-design number; must not move unless a PR changes the model", true)
	add("stonne", "ms_utilization", "ratio", "higher", "sim MACs / (sim cycles x multipliers) over the same ops", "modelled-design number; must not move unless a PR changes the model", true)
	// api
	add("api", "conv_us", "us", "lower", "probe: median api.Conv2DNCHWOpts of the standard MAERI conv row", "ops_per_s -> "+miss+", "+alex, false)
	add("api", "dense_us", "us", "lower", "probe: median api.DenseOpts of the standard MAERI dense row", "ops_per_s -> "+miss+", "+alex, false)
	// core
	add("core", "cpu_ops_ms", "ms", "lower", "median Session.Run - sum of offloaded-layer time (executor + topi pool/relu/LRN); 0 off "+alex, "request_p50_ms -> "+alex, false)
	// autotune
	add("autotune", "trials_per_s_conv", "1/s", "higher", "measured trials / search time over conv-layer searches (0 off "+tune+")", "ops_per_s -> "+tune, false)
	add("autotune", "trials_per_s_fc", "1/s", "higher", "measured trials / search time over FC-layer searches (0 off "+tune+")", "ops_per_s -> "+tune, false)
	add("autotune", "measure_share", "ratio", "lower", "time inside the wrapped Measurer / search time (0 off "+tune+")", "ops_per_s -> "+tune, false)
	add("autotune", "speedup_conv_x", "x", "higher", "basic / tuned cycles, mean over conv layers and the first passes (paper: 50x; 0 off "+tune+")", "sim_cycles_total -> "+tune, true)
	add("autotune", "speedup_fc_x", "x", "higher", "basic / tuned cycles, mean over FC layers and the first passes (paper: 11x; 0 off "+tune+")", "sim_cycles_total -> "+tune, true)
	// farm
	add("farm", "key_us", "us", "lower", "probe: median Job.Key() of the standard conv row", "request_p50_ms -> "+hit+"; ops_per_s -> "+miss, false)
	add("farm", "do_miss_us", "us", "lower", "probe: median Farm.Do of a cold standard conv row (disk tier attached)", "ops_per_s -> "+miss, false)
	add("farm", "do_memhit_us", "us", "lower", "probe: median Farm.Do answered by the memory tier", "request_p50_ms -> "+hit, false)
	add("farm", "do_diskhit_us", "us", "lower", "probe: median Farm.Do answered by the disk tier of a cold farm", "request_p50_ms -> "+hit, false)
	add("farm", "mem_hit_ratio", "ratio", "higher", "memory-tier hits / submissions from Farm.Stats() over the traced window", "ops_per_s -> "+hit+", "+tune, false)
	add("farm", "disk_hit_ratio", "ratio", "higher", "disk-tier hits / submissions from Farm.Stats() over the traced window", "ops_per_s -> "+hit, false)
	add("farm", "dedup_ratio", "ratio", "higher", "single-flight attaches / submissions from Farm.Stats() over the traced window", "ops_per_s -> "+hit, false)
	add("farm", "evictions_per_op", "ratio", "lower", "memory-tier evictions / ops over the traced window", "ops_per_s -> "+hit, false)
	add("farm", "codec_encode_us", "us", "lower", "probe: median farm.EncodeResult of a standard conv result", "ops_per_s -> "+miss, false)
	add("farm", "codec_decode_us", "us", "lower", "probe: median farm.DecodeResult of the same frame", "request_p50_ms -> "+hit, false)
	add("farm", "disk_put_us", "us", "lower", "probe: median DiskStore.Put of a standard conv result", "ops_per_s -> "+miss, false)
	add("farm", "disk_get_us", "us", "lower", "probe: median DiskStore.Get of the same entry", "request_p50_ms -> "+hit, false)
	add("farm", "phase_enqueue_wait_ms_p50", "ms", "lower", "median enqueue_wait phase of traced jobs (waiting, not busy)", "request_p50_ms -> sweep workloads", false)
	add("farm", "phase_disk_lookup_ms_p50", "ms", "lower", "median disk_lookup phase of traced jobs", "request_p50_ms -> "+hit, false)
	add("farm", "phase_compute_ms_p50", "ms", "lower", "median compute phase of traced jobs that computed", "request_p50_ms -> "+miss+", "+clus, false)
	add("farm", "phase_persist_ms_p50", "ms", "lower", "median persist phase of traced jobs (includes the R=2 replica write)", "request_p50_ms -> "+miss+", "+clus, false)
	add("farm", "sweeplog_record_us", "us", "lower", "probe: median SweepLog.Record", "ops_per_s -> "+clus, false)
	add("farm", "replicated_put_us", "us", "lower", "probe: median ReplicatedStore.Put with one remote owner over loopback", "ops_per_s -> "+clus, false)
	add("farm", "replica_writes_per_op", "count", "lower", "remote replica writes / ops over the traced window (0 off "+clus+")", "ops_per_s -> "+clus, false)
	add("farm", "ring_owners_ns", "ns", "lower", "probe: median Ring.Owners(key, 2) on a 3-member ring", "ops_per_s -> "+clus, false)
	// serve
	add("serve", "job_build_us", "us", "lower", "probe: median JobRequest.Job() of the standard conv row (operand generation included)", "request_p50_ms -> "+hit+", "+miss, false)
	add("serve", "handler_us", "us", "lower", "probe: median Server.ServeHTTP of a memory-warm /simulate on a recorder", "request_p50_ms -> "+hit+", "+miss, false)
	add("serve", "socket_us", "us", "lower", "probe: median client-observed memory-warm /simulate over loopback - handler_us", "request_p50_ms -> "+hit+", "+miss, false)
	add("serve", "first_row_ms_p50", "ms", "lower", "median time to the first NDJSON row of a traced batch (0 off the sweeps)", "streaming/flush changes -> sweep workloads", false)
	add("serve", "request_p95_ms", "ms", "lower", "95th percentile traced request latency (diagnostic tail)", "streaming/flush changes -> sweep workloads", false)
	add("serve", "request_p99_ms", "ms", "lower", "99th percentile traced request latency (diagnostic tail)", "streaming/flush changes -> sweep workloads", false)
	add("serve", "hop_us", "us", "lower", "probe: median memory-warm /simulate via a coordinator - direct to the owning peer", "ops_per_s -> "+clus, false)
	add("serve", "peer_balance", "ratio", "higher", "min / max rows answered per peer over the traced window (0 off "+clus+")", "ops_per_s -> "+clus, false)
	add("serve", "error_rows", "count", "lower", "error rows seen over the traced window", "failed_ratio -> "+clus, true)
	// telemetry
	add("telemetry", "trace_overhead_ratio", "ratio", "higher", "ops_per_s of the traced half of the window / ops_per_s of its untraced half", "tracing cost, every workload", false)
	return ms
}

// WorkloadSpec describes one workload for the schema block of the results.
type WorkloadSpec struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Op      string `json:"op"`
	Request string `json:"request"`
	Clients int    `json:"clients"`
	// MACsPerOp is the mean simulated multiply-accumulates behind one op.
	MACsPerOp float64 `json:"macs_per_op"`
}

var workloadSpecs = []WorkloadSpec{
	{Name: "alexnet_e2e", Clients: 1, Op: "one offloaded layer (8 per run)", Request: "one core.Session.Run of full AlexNet, alternating MAERI and SIGMA at 50 % sparsity", MACsPerOp: 90.5e6,
		Why: "the paper's headline use: tensor+stonne+api do nearly all the work and farm/serve none, so a kernel or engine change must move it and a service change must not"},
	{Name: "sweep_miss_small", Clients: 2, Op: "one row (~0.6 MMAC)", Request: "one NDJSON /batch of 32 rows over loopback, new seeds every batch", MACsPerOp: 0.9e6,
		Why: "every row is a result-cache miss and a disk write; small jobs make serve+farm overhead visible next to the simulation"},
	{Name: "sweep_hit_mixed", Clients: 2, Op: "one row (no simulation)", Request: "one NDJSON /batch of 32 rows replayed from a 64-batch working set, memory tier bounded to half of it", MACsPerOp: 0,
		Why: "reads the stores sweep_miss_small writes, working set twice the memory tier; a tensor/stonne change is predicted to show no change here"},
	{Name: "tune_alexnet_cycles", Clients: 1, Op: "one measured trial", Request: "one layer's XGBTuner search (600 trials) over a shared farm", MACsPerOp: 0,
		Why: "the paper's second contribution: autotune+xgboost and in-process farm.Do with dry-run jobs, tensor arithmetic bypassed"},
	{Name: "cluster_sweep_r2", Clients: 2, Op: "one row (~0.6 MMAC)", Request: "one journaled NDJSON /batch?sweep_id of 32 rows to a coordinator over two R=2 replicated nodes", MACsPerOp: 0.9e6,
		Why: "coordinator hop, R=2 replicated put and SweepLog append; bounds overhead on at most 2 cores, not scaling"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// validateSchema rejects, at start-up, any metric or workload name the
// results format cannot carry, and any duplicate.
func validateSchema() error {
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !nameRE.MatchString(name) || len(name) > 64 {
			return fmt.Errorf("schema: %s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("schema: %s name %q is used twice", kind, name)
		}
		seen[name] = true
		return nil
	}
	for _, m := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if err := check("metric", m.Name); err != nil {
			return err
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("schema: metric %q has direction %q", m.Name, m.Better)
		}
	}
	for _, w := range workloadSpecs {
		if err := check("workload", w.Name); err != nil {
			return err
		}
	}
	return nil
}

func metricByName(name string) (Metric, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range perLayer {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
