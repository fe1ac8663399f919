package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// alexEnv is alexnet_e2e: one client alternating core.Session.Run of full
// AlexNet on MAERI and on SIGMA over weights that are 50 % zeros.
//
// core.Session prunes a SIGMA model's weights inside every Run
// (Session.maybePrune: a clone and a full sort of 61 M weights, ~11 s per
// run on the reference box — see README, baseline observations). A window
// of a few seconds cannot hold such requests, so the benchmark generates
// the sparse input itself: set-up zeroes every weight below the median
// magnitude of its N(0, sigma) initialiser once, and the SIGMA session runs
// with sparsity_ratio 0. The engine never reads the ratio — its counters
// come from the operand's non-zero structure — so the simulated statistics
// are those of a 50 % sparse model.
type alexEnv struct {
	o     options
	g     *graph.Graph
	sess  [2]*core.Session
	names [2]string

	want    [2]stats.Stats // TotalStats every run of a controller must repeat
	haveRef [2]bool
	pass0   [2]stats.Stats
	// offloadMS collects, per traced request, the time inside the offloaded
	// layers as the api layer's own compute histogram reports it.
	offloadMS [2][]float64
	runMS     [2][]float64
}

// medianAbsNormal is the median of |x| for x ~ N(0, 1).
const medianAbsNormal = 0.6744897501960817

func newAlexEnv(o options) (*alexEnv, error) {
	e := &alexEnv{o: o, g: models.AlexNet(o.Seed), names: [2]string{"maeri", "sigma"}}
	for _, n := range e.g.Nodes() {
		if n.Op != graph.OpConstant || !strings.HasSuffix(n.Name, ".weight") {
			continue
		}
		sigma := float32(0.05) // models.AlexNet: conv weights N(0, 0.05), dense N(0, 0.02)
		if strings.HasPrefix(n.Name, "fc") {
			sigma = 0.02
		}
		cut := sigma * medianAbsNormal
		data := n.Value.Data()
		for i, v := range data {
			if v < cut && v > -cut {
				data[i] = 0
			}
		}
	}
	for k, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM} {
		s, err := core.NewSession(config.Default(ct))
		if err != nil {
			return nil, err
		}
		e.sess[k] = s
	}
	if o.Preset.WarmUp {
		for k := 0; k < 2; k++ {
			if out := e.request(0, k-2, nil); out.failed > 0 {
				return nil, fmt.Errorf("warm-up run on %s failed", e.names[k])
			}
		}
	}
	return e, nil
}

func (e *alexEnv) clients() int      { return 1 }
func (e *alexEnv) kinds() int        { return 2 }
func (e *alexEnv) minRequests() int  { return 2 }
func (e *alexEnv) passRequests() int { return 2 }
func (e *alexEnv) close()            {}

// input is the fresh seeded 227x227 image of request i.
func (e *alexEnv) input(i int) *tensor.Tensor {
	k := ((i % 2) + 2) % 2
	pass := (i - k) / 2 // warm-up requests are pass -1
	return tensor.RandomUniform(opSeed(e.o.Seed, pass, k), 1, 1, 3, 227, 227)
}

func (e *alexEnv) request(_, i int, tr *tracer) outcome {
	k := ((i % 2) + 2) % 2
	s := e.sess[k]
	in := e.input(i)
	before := api.ComputeSummaries()[e.names[k]].SumMS
	start := time.Now()
	outs, err := s.Run(e.g, map[string]*tensor.Tensor{"data": in})
	d := time.Since(start)
	out := outcome{ops: 8, kind: k}
	total := s.TotalStats()
	switch {
	case err != nil || len(s.Records()) != 8 || len(outs) != 1 || !isDistribution(outs[0]):
		out.failed = 8
	case !e.haveRef[k]:
		e.want[k], e.haveRef[k] = total, true
	case total != e.want[k]:
		// The counters depend on geometry and weights only, never on the
		// image: every run of a controller must repeat them.
		out.failed = 8
	}
	if i == k {
		e.pass0[k] = total
	}
	if tr != nil {
		offload := api.ComputeSummaries()[e.names[k]].SumMS - before
		op := tr.newOp()
		root := tr.add(0, op, "request", "core.Session.Run "+e.names[k], "core", start, d)
		tr.add(root, op, "request", "offloaded layers (bifrost_compute_seconds)", "api", start, msDur(offload))
		e.offloadMS[k] = append(e.offloadMS[k], offload)
		e.runMS[k] = append(e.runMS[k], float64(d)/1e6)
	}
	return out
}

// isDistribution checks the softmax output: 1000 finite probabilities
// summing to 1.
func isDistribution(t *tensor.Tensor) bool {
	if t.Size() != 1000 {
		return false
	}
	var sum float64
	for _, v := range t.Data() {
		if math.IsNaN(float64(v)) || v < 0 {
			return false
		}
		sum += float64(v)
	}
	return math.Abs(sum-1) < 1e-3
}

func (e *alexEnv) simTotals() simTotals {
	var t simTotals
	for _, s := range e.pass0 {
		t.add(s)
	}
	return t.over(1)
}

// verify runs LeNet-5 (5 offloaded layers) through the same front door on
// both controllers, once on the fused fast path and once on the step-loop
// reference engines: records and outputs must agree bit for bit.
func (e *alexEnv) verify() (checked, bad int, notes []string) {
	g := models.LeNet5(e.o.Seed)
	in := tensor.RandomUniform(opSeed(e.o.Seed, 0, 7), 1, 1, 1, 28, 28)
	for k, ct := range []config.ControllerType{config.MAERIDenseWorkload, config.SIGMASparseGEMM} {
		cfg := config.Default(ct)
		if ct == config.SIGMASparseGEMM {
			cfg.SparsityRatio = 50
		}
		var recs [2][]api.LayerRecord
		var outs [2]*tensor.Tensor
		for r, ref := range []bool{false, true} {
			s, err := core.NewSession(cfg)
			if err != nil {
				return checked + 1, bad + 1, append(notes, err.Error())
			}
			s.Reference = ref
			o, err := s.Run(g, map[string]*tensor.Tensor{"data": in})
			if err != nil {
				return checked + 1, bad + 1, append(notes, err.Error())
			}
			recs[r], outs[r] = append([]api.LayerRecord(nil), s.Records()...), o[0]
		}
		for l := range recs[0] {
			checked++
			if l >= len(recs[1]) || recs[0][l] != recs[1][l] {
				bad++
				notes = append(notes, fmt.Sprintf("%s LeNet-5 layer %d differs from the reference engine", e.names[k], l))
			}
		}
		checked++
		if tensor.FirstBitDiff(outs[0], outs[1]) >= 0 {
			bad++
			notes = append(notes, e.names[k]+" LeNet-5 output differs from the reference engine")
		}
	}
	return checked, bad, notes
}

func (e *alexEnv) counters() map[string]float64 { return nil }

func (e *alexEnv) layerMetrics(st loopStats) map[string]float64 {
	m := map[string]float64{
		"stonne.maeri_model_ms": median(st.lat[0]),
		"stonne.sigma_model_ms": median(st.lat[1]),
	}
	var cpu []float64
	for k := range e.runMS {
		for i := range e.runMS[k] {
			cpu = append(cpu, e.runMS[k][i]-e.offloadMS[k][i])
		}
	}
	m["core.cpu_ops_ms"] = median(cpu)
	return m
}

// ladder replays pass 0 — one run per controller on the identical image —
// through the benchmark's own graph.Executor offload hook, which builds the
// job core.Session would build and replays farm.Run ⊃ api ⊃ stonne/tensor
// on the layer's real activations. The root's duration is rebuilt as CPU-op
// time plus the farm.Run spans, leaving out the rungs' re-executions.
func (e *alexEnv) ladder(tr *tracer) error {
	for k, s := range e.sess {
		cfg := s.Config()
		packs := newLadderPacks()
		op := tr.newOp()
		var inCallbacks, offloaded time.Duration
		layersSeen := 0
		start := time.Now()
		root := tr.add(0, op, "ladder", "graph.Executor run of AlexNet on "+e.names[k], "core", start, 0)
		ex := &graph.Executor{Graph: e.g, Offload: func(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
			if n.Op != graph.OpConv2D && n.Op != graph.OpDense {
				return nil, false, nil
			}
			layersSeen++
			t := time.Now()
			job := e.layerJob(cfg, n, ins)
			if e.o.Preset.LadderOps < 16 && layersSeen%4 != 3 {
				// Smoke: replay two layers (conv3, fc2); the others run once,
				// outside the root, only to produce the next activation.
				res, err := farm.Run(job.WithPackCache(packs.run))
				inCallbacks += time.Since(t)
				return res.Out, true, err
			}
			res, d, err := computeLadder(tr, root, op, job, packs)
			inCallbacks += time.Since(t)
			offloaded += d
			return res.Out, true, err
		}}
		if _, err := ex.Run(map[string]*tensor.Tensor{"data": e.input(k)}); err != nil {
			return err
		}
		tr.setDuration(root, time.Since(start)-inCallbacks+offloaded)
	}
	return nil
}

// layerJob is the job core.Session.offloadConv/offloadDense submits for a
// node: basic mappings, weights as they stand in the graph.
func (e *alexEnv) layerJob(cfg config.HWConfig, n *graph.Node, ins []*tensor.Tensor) farm.Job {
	if n.Op == graph.OpDense {
		return farm.Job{HW: cfg, Kind: farm.Dense, FCMapping: mapping.BasicFC(), Input: ins[0], Weights: ins[1]}
	}
	d, err := graph.ConvDimsOf(n)
	if err != nil {
		panic(err) // the graph ran through Session.Run before the ladder
	}
	return farm.Job{HW: cfg, Kind: farm.Conv2D, Layout: n.Attrs.DataLayout, Dims: d, ConvMapping: mapping.Basic(), Input: ins[0], Weights: ins[1]}
}
