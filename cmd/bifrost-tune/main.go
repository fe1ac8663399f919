// Command bifrost-tune searches the MAERI dataflow-mapping space for one
// layer, using the AutoTVM module (grid/random/GA/XGBoost tuners, psums or
// cycles target) or the integrated mRNA mapper, and prints the winning
// mapping with its metrics.
//
// Usage:
//
//	bifrost-tune -layer conv -c 96 -hw 27 -k 256 -r 5 -pad 2 -groups 2
//	bifrost-tune -layer fc -in 9216 -out 4096 -tuner grid
//	bifrost-tune -layer fc -in 4096 -out 4096 -mrna
//
// With -target cycles the measurements run through the simulation farm;
// -cache-dir persists them, so re-running a sweep (to compare tuners,
// trial budgets or seeds on the same layer) replays cached measurements
// from disk instead of simulating:
//
//	bifrost-tune -layer conv -c 96 -hw 27 -k 256 -r 5 -target cycles \
//	  -cache-dir ~/.cache/bifrost-tune
package main

import (
	"flag"
	"fmt"
	"log"

	bifrost "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bifrost-tune: ")
	var (
		layer   = flag.String("layer", "conv", "layer kind: conv or fc")
		ms      = flag.Int("ms", 128, "multipliers")
		tuner   = flag.String("tuner", "xgb", "tuner: grid, random, ga, xgb")
		target  = flag.String("target", "psums", "target: psums or cycles")
		trials  = flag.Int("trials", 600, "trial budget")
		early   = flag.Int("early", 120, "early stopping window")
		seed    = flag.Int64("seed", 1, "search seed")
		useMRNA = flag.Bool("mrna", false, "use the integrated mRNA mapper instead of AutoTVM")

		// Farm-backed measurement (cycles target only).
		farmWorkers = flag.Int("farm-workers", 0, "measurement-farm workers for -target cycles (0 = GOMAXPROCS)")
		cacheDir    = flag.String("cache-dir", "", "persistent measurement cache for -target cycles (empty = memory only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "in-memory measurement-cache byte bound (0 = the farm's default, 256 MiB)")

		// Conv geometry.
		c      = flag.Int("c", 16, "input channels")
		hw     = flag.Int("hw", 14, "input height/width")
		k      = flag.Int("k", 32, "output channels")
		r      = flag.Int("r", 3, "filter size")
		stride = flag.Int("stride", 1, "stride")
		pad    = flag.Int("pad", 1, "padding")
		groups = flag.Int("groups", 1, "groups")

		// FC geometry.
		inN  = flag.Int("in", 1024, "input neurons")
		outN = flag.Int("out", 512, "output neurons")
	)
	flag.Parse()

	arch := bifrost.DefaultArchitecture(bifrost.MAERI)
	arch.MSSize = *ms
	opts := bifrost.TuneOptions{
		Tuner: bifrost.Tuner(*tuner), Target: bifrost.Target(*target),
		Trials: *trials, EarlyStopping: *early, Seed: *seed,
	}
	var fm *bifrost.Farm
	if bifrost.Target(*target) == bifrost.TargetCycles {
		fopts := []bifrost.FarmOption{bifrost.FarmMaxBytes(*cacheMax)}
		if *cacheDir != "" {
			ds, err := bifrost.NewDiskStore(*cacheDir, 0)
			if err != nil {
				log.Fatal(err)
			}
			fopts = append(fopts, bifrost.FarmDiskCache(ds))
		}
		fm = bifrost.NewFarm(*farmWorkers, fopts...)
		defer fm.Close()
		opts.Farm = fm
	}
	report := func() {
		if fm == nil {
			return
		}
		st := fm.Stats()
		fmt.Printf("measurements: %d simulated, %d cached (%d from disk), %d coalesced\n",
			st.Completed, st.Hits, st.DiskHits, st.Deduped)
	}

	switch *layer {
	case "conv":
		d := bifrost.ConvDims{N: 1, C: *c, H: *hw, W: *hw, K: *k, R: *r, S: *r,
			G: *groups, StrideH: *stride, StrideW: *stride, PadH: *pad, PadW: *pad}
		if err := d.Resolve(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("conv layer: C=%d HxW=%dx%d K=%d %dx%d/%d pad=%d groups=%d (%d MACs)\n",
			*c, *hw, *hw, *k, *r, *r, *stride, *pad, *groups, d.MACs())
		if *useMRNA {
			mapper, err := bifrost.NewMRNAMapper(arch)
			if err != nil {
				log.Fatal(err)
			}
			m, cycles, err := mapper.MapConv(d)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("mRNA mapping: %s (estimated %d cycles)\n", m, cycles)
			return
		}
		m, res, err := bifrost.TuneConvMapping(arch, d, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best mapping: %s\n", m)
		fmt.Printf("cost (%s): %.0f  measured: %d  converged: %t\n",
			*target, res.Best.Cost.Primary, res.Measured, res.Converged)
		report()
	case "fc":
		fmt.Printf("fc layer: %d -> %d neurons (%d MACs)\n", *inN, *outN, int64(*inN)*int64(*outN))
		if *useMRNA {
			mapper, err := bifrost.NewMRNAMapper(arch)
			if err != nil {
				log.Fatal(err)
			}
			m, cycles, err := mapper.MapFC(1, *inN, *outN)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("mRNA mapping (T_S, T_K, T_N): %s (estimated %d cycles)\n", m, cycles)
			return
		}
		m, res, err := bifrost.TuneFCMapping(arch, 1, *inN, *outN, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("best mapping (T_S, T_K, T_N): %s\n", m)
		fmt.Printf("cost (%s): %.0f  measured: %d  converged: %t\n",
			*target, res.Best.Cost.Primary, res.Measured, res.Converged)
		report()
	default:
		log.Fatalf("unknown layer kind %q (want conv or fc)", *layer)
	}
}
