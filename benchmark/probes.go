package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/farm"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/stonne"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// runProbes measures the fixed-input micro-costs of every layer: the same
// standard rows (the sweep mix's conv and dense geometries, seeded by the
// run's seed) through each layer's public entry, the same way whatever the
// workload, each figure the median of Preset.ProbeReps calls. They are the
// common yardstick beside the workload's own attribution: a PR that speeds
// a layer up should move its probe on every workload, and the end-to-end
// metric only on the workloads that use the layer.
func runProbes(o options, sc *scratch, m map[string]float64) error {
	reps := o.Preset.ProbeReps
	us, ns := time.Microsecond, time.Nanosecond
	seed := opSeed(o.Seed, 0, 500)
	rows := batchRequests(o.Seed, 500_000, false) // rows 0 conv, 16 dense, 24 sigma, 28 tpu
	var fail error
	check := func(err error) {
		if fail == nil && err != nil {
			fail = err
		}
	}
	build := func(r serve.JobRequest) farm.Job {
		j, err := r.Job()
		check(err)
		return j
	}
	conv, dense, sigma, tpu := build(rows[0]), build(rows[16]), build(rows[24]), build(rows[28])
	if fail != nil {
		return fail
	}
	d := conv.Dims

	// tensor
	a, b := tensor.RandomUniform(seed, 1, 256, 256), tensor.RandomUniform(seed+1, 1, 256, 256)
	gemmUS := medianDur(reps, us, func() { tensor.GEMM(a, b) })
	m["tensor.gemm_gflops"] = 2 * 256 * 256 * 256 / gemmUS / 1e3
	m["tensor.conv_implicit_us"] = medianDur(reps, us, func() { tensor.ConvGEMMImplicitCached(tpu.Input, tpu.Weights, d, 1, nil) })
	npqk := tensor.New(d.N, d.P(), d.Q(), d.K)
	m["tensor.layout_us"] = medianDur(reps, us, func() {
		tensor.NCHWToNHWC(conv.Input)
		tensor.KCRSToRSCK(conv.Weights)
		tensor.NPQKToNKPQ(npqk)
	})
	m["tensor.random_us"] = medianDur(reps, us, func() {
		tensor.RandomUniform(seed, 1, conv.Input.Shape()...)
		tensor.RandomUniform(seed+100, 1, conv.Weights.Shape()...)
	})

	// stonne
	maeriCfg := config.Default(config.MAERIDenseWorkload)
	m["stonne.new_us"] = medianDur(reps, us, func() { _, err := stonne.New(maeriCfg); check(err) })
	nhwc, rsck := tensor.NCHWToNHWC(conv.Input), tensor.KCRSToRSCK(conv.Weights)
	m["stonne.maeri_row_us"] = medianDur(reps, us, func() {
		sim, err := stonne.New(conv.HW)
		check(err)
		out, _, err := sim.Conv2D(nhwc, rsck, d, conv.ConvMapping)
		check(err)
		out.Release()
	})
	for _, p := range []struct {
		name string
		job  farm.Job
	}{{"stonne.sigma_row_us", sigma}, {"stonne.tpu_row_us", tpu}} {
		km := tensor.KernelMatrix(p.job.Weights, d, 0)
		m[p.name] = medianDur(reps, us, func() {
			sim, err := stonne.New(p.job.HW)
			check(err)
			_, err = sim.GEMMStats(km, d.N*d.P()*d.Q())
			check(err)
		})
	}
	for _, l := range models.AlexNetLayers() {
		job := farm.Job{HW: maeriCfg, DryRun: true}
		switch l.Name {
		case "conv3":
			job.Kind, job.Dims, job.ConvMapping = farm.Conv2D, l.Conv, mapping.Basic()
			m["stonne.dryrun_conv_us"] = medianDur(reps, us, func() { _, err := farm.Run(job); check(err) })
		case "fc1":
			job.Kind, job.FCMapping, job.M, job.K, job.N = farm.Dense, mapping.BasicFC(), l.M, l.K, l.N
			// ~15 ms a call (it allocates and zeroes 1x9216 and 4096x9216
			// operands): a fifth of the repetitions keeps the probe short.
			m["stonne.dryrun_dense_us"] = medianDur(max(reps/5, 3), us, func() { _, err := farm.Run(job); check(err) })
		}
	}

	// api
	m["api.conv_us"] = medianDur(reps, us, func() {
		_, _, err := api.Conv2DNCHWOpts(conv.HW, conv.Input, conv.Weights, d, conv.ConvMapping, api.Options{})
		check(err)
	})
	m["api.dense_us"] = medianDur(reps, us, func() {
		_, _, err := api.DenseOpts(dense.HW, dense.Input, dense.Weights, dense.FCMapping, api.Options{})
		check(err)
	})

	// farm
	m["farm.key_us"] = medianDur(reps, us, func() { _, err := conv.Key(); check(err) })
	if err := probeFarm(o, sc, m, rows[0]); err != nil {
		return err
	}
	res, err := farm.Run(conv)
	if err != nil {
		return err
	}
	frame := farm.EncodeResult(res)
	m["farm.codec_encode_us"] = medianDur(reps, us, func() { farm.EncodeResult(res) })
	m["farm.codec_decode_us"] = medianDur(reps, us, func() { _, err := farm.DecodeResult(frame); check(err) })
	ds, err := farm.NewDiskStore(sc.dir("probe-disk"), 0)
	if err != nil {
		return err
	}
	key, err := conv.Key()
	if err != nil {
		return err
	}
	m["farm.disk_put_us"] = medianDur(reps, us, func() { check(ds.PutErr(key, res)) })
	m["farm.disk_get_us"] = medianDur(reps, us, func() {
		if _, ok := ds.Get(key); !ok {
			check(fmt.Errorf("probe: disk entry vanished"))
		}
	})
	log, err := farm.OpenSweepLog(sc.dir("probe-sweeps"), "probe")
	if err != nil {
		return err
	}
	row := 0
	m["farm.sweeplog_record_us"] = medianDur(reps, us, func() { check(log.Record(row, key)); row++ })
	check(log.Close())
	ring := farm.NewRing(0)
	for _, n := range []string{"node0", "node1", "node2"} {
		ring.Add(n)
	}
	m["farm.ring_owners_ns"] = medianDur(reps, ns, func() { ring.Owners(key, 2) })

	// serve
	m["serve.job_build_us"] = medianDur(reps, us, func() { _, err := rows[0].Job(); check(err) })
	if err := probeServe(o, sc, m, rows[0], res); err != nil {
		return err
	}
	return fail
}

// probeFarm measures Farm.Do in the three cache states on farms wired like
// a bifrost-serve -cache-dir node, each repetition on a fresh seed.
func probeFarm(o options, sc *scratch, m map[string]float64, base serve.JobRequest) error {
	reps := o.Preset.ProbeReps
	dir := sc.dir("probe-farm")
	open := func() (*farm.Farm, error) {
		ds, err := farm.NewDiskStore(dir, 0)
		if err != nil {
			return nil, err
		}
		return farm.New(runtime.GOMAXPROCS(0), farm.WithDiskStore(farm.NewRetryStore(ds, farm.DefaultRetryPolicy()))), nil
	}
	jobs := make([]farm.Job, reps)
	for i := range jobs {
		r := base
		r.Seed = opSeed(o.Seed, 0, 600+i)
		var err error
		if jobs[i], err = r.Job(); err != nil {
			return err
		}
	}
	var fail error
	do := func(f *farm.Farm) func() {
		i := 0
		return func() {
			if _, err := f.Do(jobs[i%reps]); err != nil && fail == nil {
				fail = err
			}
			i++
		}
	}
	cold, err := open()
	if err != nil {
		return err
	}
	m["farm.do_miss_us"] = medianDur(reps, time.Microsecond, do(cold))
	m["farm.do_memhit_us"] = medianDur(reps, time.Microsecond, do(cold))
	cold.Close()
	reopened, err := open()
	if err != nil {
		return err
	}
	m["farm.do_diskhit_us"] = medianDur(reps, time.Microsecond, do(reopened))
	reopened.Close()
	return fail
}

// probeServe measures the serve layer's own cost on memory-warm requests —
// handler on a recorder, socket on top of it, the coordinator hop on top of
// that — and a replicated put, on a two-node cluster stack.
func probeServe(o options, sc *scratch, m map[string]float64, req serve.JobRequest, res farm.Result) error {
	reps := o.Preset.ProbeReps
	us := time.Microsecond
	st, err := newClusterStack(sc.dir("probe-cluster"))
	if err != nil {
		return err
	}
	defer st.stop()
	first, err := simulate(st.client, st.front.url, req) // computes, replicates and warms the owner
	if err != nil {
		return err
	}
	owner := st.owner(first.Peer)
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var fail error
	check := func(err error) {
		if fail == nil && err != nil {
			fail = err
		}
	}
	handler := medianDur(reps, us, func() { check(recordHandler(owner.api, body)) })
	direct := medianDur(reps, us, func() { _, err := simulate(st.client, owner.url, req); check(err) })
	viaCoordinator := medianDur(reps, us, func() { _, err := simulate(st.client, st.front.url, req); check(err) })
	m["serve.handler_us"] = handler
	m["serve.socket_us"] = max(direct-handler, 0) // differences of medians: below zero means "not resolvable"
	m["serve.hop_us"] = max(viaCoordinator-direct, 0)

	// Keys placed on node0 by hand: ReplicatedStore.Put writes the local
	// tier and one remote owner (R=2 of 2 nodes) whatever the key.
	i := 0
	m["farm.replicated_put_us"] = medianDur(reps, us, func() {
		st.workers[0].repl.Put(fmt.Sprintf("%064x", i), res)
		i++
	})
	return fail
}
