package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/stonne"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

// The ladder replay calls each layer's public entry on the identical input,
// outermost first, each call a span whose parent is the rung above. A cold
// rung needs a cold cache, so every cold rung gets its own freshly built
// stack (or farm, or pack cache); what it replays is the same op.

// ladderPacks are the pack caches of the rungs below the farm. The farm
// shares one PackCache across its jobs, so each direct-call rung keeps one
// across the replayed ops too and sees the same sequence of hits.
type ladderPacks struct{ run, api, kern *tensor.PackCache }

func newLadderPacks() *ladderPacks {
	mk := func() *tensor.PackCache {
		return tensor.NewPackCache(tensor.DefaultPackCacheEntries, tensor.DefaultPackCacheBytes)
	}
	return &ladderPacks{run: mk(), api: mk(), kern: mk()}
}

// computeLadder replays the rungs below the farm for one non-dry-run job:
// farm.Run ⊃ api.Conv2DNCHWOpts/DenseOpts ⊃ {stonne.Simulator calls, tensor
// kernels and layout transposes}. It returns farm.Run's result and
// duration. MAERI's fused arithmetic lives in the engine (only the SIMD
// micro-kernel underneath is tensor's and cannot be split off from
// outside), so it counts as stonne; SIGMA and the TPU only compute
// statistics in the engine and their arithmetic is tensor's.
func computeLadder(tr *tracer, parent, op int, job farm.Job, p *ladderPacks) (farm.Result, time.Duration, error) {
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	cfg := job.HW.Normalize()
	var res farm.Result
	runID, runDur := tr.timed(parent, op, "ladder", "farm.Run", "farm", func() {
		var e error
		res, e = farm.Run(job.WithPackCache(p.run))
		fail(e)
	})
	opt := api.Options{Workers: job.ExecWorkers, Pack: p.api}
	switch job.Kind {
	case farm.Conv2D:
		d := job.Dims
		fail(d.Resolve())
		apiID, _ := tr.timed(runID, op, "ladder", "api.Conv2DNCHWOpts", "api", func() {
			_, _, e := api.Conv2DNCHWOpts(cfg, job.Input, job.Weights, d, job.ConvMapping, opt)
			fail(e)
		})
		if cfg.Controller == config.MAERIDenseWorkload {
			var nhwc, rsck, out *tensor.Tensor
			tr.timed(apiID, op, "ladder", "tensor NCHW->NHWC + KCRS->RSCK", "tensor", func() {
				nhwc = tensor.NCHWToNHWCCached(job.Input, p.kern)
				rsck = tensor.KCRSToRSCKCached(job.Weights, p.kern)
			})
			tr.timed(apiID, op, "ladder", "stonne.New + Simulator.Conv2D", "stonne", func() {
				sim, e := stonne.New(cfg)
				if e != nil {
					fail(e)
					return
				}
				out, _, e = sim.SetPackCache(p.kern).Conv2D(nhwc, rsck, d, job.ConvMapping)
				fail(e)
			})
			if out != nil {
				tr.timed(apiID, op, "ladder", "tensor NPQK->NKPQ", "tensor", func() { tensor.NPQKToNKPQ(out) })
				out.Release()
			}
		} else {
			kms := make([]*tensor.Tensor, d.G)
			tr.timed(apiID, op, "ladder", "tensor.KernelMatrixCached", "tensor", func() {
				for g := range kms {
					kms[g] = tensor.KernelMatrixCached(job.Weights, d, g, p.kern)
				}
			})
			tr.timed(apiID, op, "ladder", "stonne.New + Simulator.GEMMStats", "stonne", func() {
				sim, e := stonne.New(cfg)
				if e != nil {
					fail(e)
					return
				}
				for _, km := range kms {
					_, e := sim.GEMMStats(km, d.N*d.P()*d.Q())
					fail(e)
				}
			})
			tr.timed(apiID, op, "ladder", "tensor.ConvGEMMImplicitCached", "tensor", func() {
				tensor.ConvGEMMImplicitCached(job.Input, job.Weights, d, max(opt.Workers, 1), p.kern)
			})
		}
	case farm.Dense:
		apiID, _ := tr.timed(runID, op, "ladder", "api.DenseOpts", "api", func() {
			_, _, e := api.DenseOpts(cfg, job.Input, job.Weights, job.FCMapping, opt)
			fail(e)
		})
		simID, _ := tr.timed(apiID, op, "ladder", "stonne.New + Simulator.Dense", "stonne", func() {
			sim, e := stonne.New(cfg)
			if e != nil {
				fail(e)
				return
			}
			_, _, e = sim.SetPackCache(p.kern).Dense(job.Input, job.Weights, job.FCMapping)
			fail(e)
		})
		switch cfg.Controller {
		case config.SIGMASparseGEMM: // the engine multiplies weights x inputT through tensor.GEMMCached
			tr.timed(simID, op, "ladder", "tensor.Transpose2DCached + GEMMCached", "tensor", func() {
				tensor.GEMMCached(job.Weights, tensor.Transpose2DCached(job.Input, p.kern), p.kern).Release()
			})
		case config.TPUOSDense: // input x weightsT
			tr.timed(simID, op, "ladder", "tensor.Transpose2DCached + GEMMCached", "tensor", func() {
				tensor.GEMMCached(job.Input, tensor.Transpose2DCached(job.Weights, p.kern), p.kern).Release()
			})
		}
	default:
		fail(fmt.Errorf("ladder: job kind %q", job.Kind))
	}
	return res, runDur, err
}

// operandSpan times the operand generation JobRequest.Job performs (the
// tensor layer's part of building a job), by generating the same shapes.
func operandSpan(tr *tracer, parent, op int, job farm.Job) {
	if job.Input == nil || job.Weights == nil {
		return
	}
	sparsity := float64(job.HW.SparsityRatio) / 100
	tr.timed(parent, op, "ladder", "tensor.RandomUniform x2 (+Prune)", "tensor", func() {
		tensor.RandomUniform(job.Seed, 1, job.Input.Shape()...)
		w := tensor.RandomUniform(job.Seed+100, 1, job.Weights.Shape()...)
		tensor.Prune(w, sparsity)
	})
}

// recordHandler serves one /simulate on a recorder, without a socket.
func recordHandler(h http.Handler, body []byte) error {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/simulate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("/simulate on a recorder: HTTP %d %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return nil
}

// ladder replays the pass-0 rows of client 0 and client 1 (64 ops at the
// full preset) through fresh stacks, in the workload's cache state:
//
//	cold (miss, cluster): client /simulate over the socket [via the
//	  coordinator ⊃ direct to the owning node] ⊃ Server.ServeHTTP on a
//	  recorder ⊃ {JobRequest.Job ⊃ operand generation, Farm.Do cold ⊃
//	  {Job.Key, farm.Run ⊃ api ⊃ stonne/tensor}}
//	warm (hit): the same top rungs, once answered by the disk tier of a
//	  cold farm and once by its memory tier; nothing below Farm.Do runs.
func (e *sweepEnv) ladder(tr *tracer) error {
	var reqs []serve.JobRequest
	for c := 0; c < sweepClients; c++ {
		b := batchIndex(c, 0)
		if e.mode == modeHit {
			b = e.order[c][0]
		}
		reqs = append(reqs, batchRequests(e.o.Seed, b, false)...)
	}
	if len(reqs) > e.o.Preset.LadderOps {
		// Keep every row kind: take rows at an even stride.
		stride := len(reqs) / e.o.Preset.LadderOps
		var kept []serve.JobRequest
		for i := 0; i < len(reqs) && len(kept) < e.o.Preset.LadderOps; i += stride {
			kept = append(kept, reqs[i])
		}
		reqs = kept
	}

	hitDir := e.sc.dir("ladder-hit")
	build := func() (*stack, error) {
		switch e.mode {
		case modeCluster:
			return newClusterStack(e.sc.dir("ladder-cluster"))
		case modeHit: // every stack reopens the filled directory with an empty memory tier
			return newSoloStack(hitDir, 0)
		}
		return newSoloStack(e.sc.dir("ladder-solo"), 0)
	}
	if e.mode == modeHit {
		fill, err := build()
		if err != nil {
			return err
		}
		for _, r := range reqs {
			if _, err := simulate(fill.client, fill.front.url, r); err != nil {
				fill.stop()
				return err
			}
		}
		fill.stop()
	}

	// One stack per cold rung: over the socket, direct to the owner (cluster
	// only), on a recorder, and straight into the farm.
	var stacks [4]*stack
	for i := range stacks {
		if i == 1 && e.mode != modeCluster {
			continue
		}
		st, err := build()
		if err != nil {
			return err
		}
		defer st.stop()
		stacks[i] = st
	}
	packs := newLadderPacks()
	states := []string{"cold"}
	if e.mode == modeHit {
		states = []string{"disk-warm", "memory-warm"}
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		for _, state := range states {
			op := tr.newOp()
			var resp serve.JobResponse
			root, _ := tr.timed(0, op, "ladder", "client POST /simulate ("+state+")", "serve", func() {
				resp, err = simulate(stacks[0].client, stacks[0].front.url, req)
			})
			if err != nil {
				return err
			}
			parent := root
			if e.mode == modeCluster {
				parent, _ = tr.timed(root, op, "ladder", "client POST /simulate direct to "+resp.Peer, "serve", func() {
					_, err = simulate(stacks[1].client, stacks[1].owner(resp.Peer).url, req)
				})
				if err != nil {
					return err
				}
			}
			handler, _ := tr.timed(parent, op, "ladder", "Server.ServeHTTP on a recorder", "serve", func() {
				err = recordHandler(stacks[2].owner(resp.Peer).api, body)
			})
			if err != nil {
				return err
			}
			var job farm.Job
			jobID, _ := tr.timed(handler, op, "ladder", "JobRequest.Job", "serve", func() { job, err = req.Job() })
			if err != nil {
				return err
			}
			operandSpan(tr, jobID, op, job)
			do, _ := tr.timed(handler, op, "ladder", "Farm.Do ("+state+")", "farm", func() {
				_, err = stacks[3].owner(resp.Peer).fm.Do(job)
			})
			if err != nil {
				return err
			}
			tr.timed(do, op, "ladder", "Job.Key", "farm", func() { _, err = job.Key() })
			if err != nil {
				return err
			}
			if state == "cold" {
				if _, _, err := computeLadder(tr, do, op, job, packs); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
