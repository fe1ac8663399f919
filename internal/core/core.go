// Package core implements the Bifrost engine — the paper's primary
// contribution: an end-to-end runner that takes any model expressed in the
// graph IR, offloads its conv2d and dense layers to a simulated
// reconfigurable accelerator through the STONNE-Bifrost API, executes every
// other operator on the CPU inventory, and records per-layer simulation
// metrics. It plays the roles of the paper's "Simulator Configurator"
// (validating hardware configurations), "Mapping Configurator" (per-layer
// dataflow mappings with automatic defaults) and transparent runner
// (Listing 1: a whole model executes with no modification).
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/api"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/passes"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
	"repro/internal/topi"
)

// Session is one configured Bifrost run context. The zero value is not
// usable; construct with NewSession. A Session is not safe for concurrent
// use: give each goroutine its own, sharing a farm between them.
type Session struct {
	cfg config.HWConfig

	// OffloadConv and OffloadDense select which operator kinds are sent to
	// the accelerator; everything else always runs on the CPU target.
	OffloadConv  bool
	OffloadDense bool

	// Verify cross-checks every offloaded layer against the CPU operator
	// inventory ("allows end-to-end evaluation and easy verification of
	// correctness", §I). Verification failures abort the run.
	Verify bool

	// VerifyTolerance is the relative tolerance used by Verify (default 1e-3).
	VerifyTolerance float64

	// Per-layer mapping overrides, keyed by node name. Layers without an
	// entry fall back to the defaults, and finally to the basic mapping.
	ConvMappings map[string]mapping.ConvMapping
	FCMappings   map[string]mapping.FCMapping

	// Optional defaults applied to layers without a named override.
	DefaultConvMapping *mapping.ConvMapping
	DefaultFCMapping   *mapping.FCMapping

	// Reference sets job.Job.Reference on every offloaded layer, running it
	// on the oracle package's step-loop simulations instead of the
	// production engines. Outputs, records and cache keys are identical
	// either way — the flag exists to validate the engines end to end and to
	// measure their speedup.
	Reference bool

	runner job.Runner

	// pack is the session's content-keyed cache of derived operand forms,
	// used by the inline (runnerless) execution path so repeated runs of the
	// same model — or weight-sharing layers within one run — pack each
	// derived form once. Farmed layers use the farm's shared cache instead.
	// Results are byte-identical with or without it.
	pack *tensor.PackCache

	// pruned memoises maybePrune per weight content: a session's sparsity
	// ratio is fixed, so each weight tensor is cloned and pruned once, not
	// once per Run. prunes counts the prune passes actually performed.
	pruned map[[32]byte]*tensor.Tensor
	prunes int

	records []api.LayerRecord
}

// NewSession validates the hardware configuration (the simulator
// configurator "ensures that only valid hardware configurations for
// simulation are specified") and returns a ready session.
func NewSession(cfg config.HWConfig) (*Session, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{
		cfg:             cfg,
		OffloadConv:     true,
		OffloadDense:    true,
		VerifyTolerance: 1e-3,
		ConvMappings:    make(map[string]mapping.ConvMapping),
		FCMappings:      make(map[string]mapping.FCMapping),
		pack:            tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes),
	}, nil
}

// Config returns the session's normalised hardware configuration.
func (s *Session) Config() config.HWConfig { return s.cfg }

// WithFarm routes every offloaded layer through r, typically a simulation
// farm: each layer is submitted as a job, so identical simulations — across
// runs, sessions or concurrent requests sharing the farm — are deduplicated
// and served from the content-addressed cache. A farm with a persistent tier
// extends that across processes: a cold session replaying a model against a
// warm cache directory executes zero simulations. Outputs, per-layer
// records and their ordering are bit-identical to the farmless path; only
// wall-clock time and cache statistics change. Passing nil (or a nil
// *farm.Farm) restores direct execution. It returns s for chaining.
func (s *Session) WithFarm(r job.Runner) *Session {
	s.runner = r
	return s
}

// Records returns the per-layer simulation records of the last Run, in
// topological order. Each Run starts a fresh slice, so a slice returned
// here is never overwritten by a later Run.
func (s *Session) Records() []api.LayerRecord { return s.records }

// TotalStats aggregates the records of the last Run.
func (s *Session) TotalStats() stats.Stats {
	var total stats.Stats
	for _, r := range s.records {
		total.Add(r.Stats)
	}
	return total
}

// convMappingFor resolves the dataflow mapping for a conv node: named
// override → session default → automatically generated basic mapping
// ("Bifrost will automatically generate an unoptimized default mapping if
// none is provided", §VIII-B).
func (s *Session) convMappingFor(name string) mapping.ConvMapping {
	if m, ok := s.ConvMappings[name]; ok {
		return m
	}
	if s.DefaultConvMapping != nil {
		return *s.DefaultConvMapping
	}
	return mapping.Basic()
}

func (s *Session) fcMappingFor(name string) mapping.FCMapping {
	if m, ok := s.FCMappings[name]; ok {
		return m
	}
	if s.DefaultFCMapping != nil {
		return *s.DefaultFCMapping
	}
	return mapping.BasicFC()
}

// maybePrune applies SIGMA's sparsity_ratio to a weight tensor by magnitude
// pruning a copy; other architectures pass weights through untouched. The
// pruned copy is kept for the session's lifetime, keyed by the weight's
// content, so later runs (and layers sharing a weight) reuse it — and with
// it every form the pack cache derives from it.
func (s *Session) maybePrune(w *tensor.Tensor) *tensor.Tensor {
	if s.cfg.Controller != config.SIGMASparseGEMM || s.cfg.SparsityRatio == 0 {
		return w
	}
	key := w.ContentHash()
	if p, ok := s.pruned[key]; ok {
		if !tensor.ShapeEq(p.Shape(), w.Shape()) {
			// Content identity ignores shape: equal values under another
			// shape (two zero-initialised weights, say) share the pruning.
			return p.Reshape(w.Shape()...)
		}
		return p
	}
	p := w.Clone()
	tensor.Prune(p, float64(s.cfg.SparsityRatio)/100)
	s.prunes++
	if s.pruned == nil {
		s.pruned = make(map[[32]byte]*tensor.Tensor)
	}
	s.pruned[key] = p
	return p
}

// Run optimises the graph with the standard pass pipeline and executes it
// end to end, offloading supported layers to the simulated accelerator.
// It mirrors Listing 1: the caller provides an unmodified model and feeds.
// Nodes run one at a time in topological order (see graph.Executor), so
// Records lists the offloaded layers in that order.
func (s *Session) Run(g *graph.Graph, feeds map[string]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := passes.Standard(g); err != nil {
		return nil, err
	}
	s.records = nil
	ex := &graph.Executor{Graph: g, Offload: s.offload}
	return ex.Run(feeds)
}

// offload is the graph.OffloadFunc that redirects conv2d and dense nodes to
// the STONNE-Bifrost API.
func (s *Session) offload(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
	switch n.Op {
	case graph.OpConv2D:
		if !s.OffloadConv {
			return nil, false, nil
		}
		return s.offloadConv(n, ins)
	case graph.OpDense:
		if !s.OffloadDense {
			return nil, false, nil
		}
		return s.offloadDense(n, ins)
	}
	return nil, false, nil
}

// exec runs one offloaded layer. One job description serves both paths: a
// farm schedules, caches and deduplicates it (and uses its own pack cache);
// without a runner the same job runs inline, so the two paths cannot drift
// apart.
func (s *Session) exec(j job.Job) (job.Result, error) {
	j.Reference = s.Reference
	return job.Do(s.runner, j.WithPackCache(s.pack))
}

func (s *Session) offloadConv(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
	d, err := graph.ConvDimsOf(n)
	if err != nil {
		return nil, false, err
	}
	kernel := s.maybePrune(ins[1])
	m := s.convMappingFor(n.Name)
	res, err := s.exec(job.Job{
		HW: s.cfg, Kind: job.Conv2D, Layout: n.Attrs.DataLayout,
		Dims: d, ConvMapping: m, Input: ins[0], Weights: kernel,
	})
	if err != nil {
		return nil, false, fmt.Errorf("offloading conv2d %q: %w", n.Name, err)
	}
	out, st := res.Out, res.Stats
	if s.Verify {
		var want *tensor.Tensor
		if n.Attrs.DataLayout == tensor.NHWC {
			want, err = topi.Conv2DNHWC(ins[0], kernel, d)
		} else {
			want, err = topi.Conv2DNCHW(ins[0], kernel, d)
		}
		if err != nil {
			return nil, false, err
		}
		if !tensor.AllClose(want, out, s.VerifyTolerance) {
			return nil, false, fmt.Errorf("verification failed for conv2d %q: max diff %v", n.Name, tensor.MaxAbsDiff(want, out))
		}
	}
	s.records = append(s.records, api.LayerRecord{
		Name: n.Name, Op: "conv2d", Arch: s.cfg.Controller, Mapping: m.String(), Stats: st,
	})
	return out, true, nil
}

func (s *Session) offloadDense(n *graph.Node, ins []*tensor.Tensor) (*tensor.Tensor, bool, error) {
	weights := s.maybePrune(ins[1])
	m := s.fcMappingFor(n.Name)
	res, err := s.exec(job.Job{HW: s.cfg, Kind: job.Dense, FCMapping: m, Input: ins[0], Weights: weights})
	if err != nil {
		return nil, false, fmt.Errorf("offloading dense %q: %w", n.Name, err)
	}
	out, st := res.Out, res.Stats
	if s.Verify {
		want, err := topi.Dense(ins[0], weights)
		if err != nil {
			return nil, false, err
		}
		if !tensor.AllClose(want, out, s.VerifyTolerance) {
			return nil, false, fmt.Errorf("verification failed for dense %q: max diff %v", n.Name, tensor.MaxAbsDiff(want, out))
		}
	}
	s.records = append(s.records, api.LayerRecord{
		Name: n.Name, Op: "dense", Arch: s.cfg.Controller, Mapping: "T_S, T_K, T_N = " + m.String(), Stats: st,
	})
	return out, true, nil
}

// Report renders a per-layer table of the last Run plus totals.
func (s *Session) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Bifrost report — %s (%d multipliers, dn_bw=%d, rn_bw=%d)\n",
		s.cfg.Controller, s.cfg.Multipliers(), s.cfg.DNBandwidth, s.cfg.RNBandwidth)
	recs := append([]api.LayerRecord(nil), s.records...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Stats.Cycles > recs[j].Stats.Cycles })
	for _, r := range recs {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	fmt.Fprintf(&b, "  total: %s\n", s.TotalStats())
	return b.String()
}
