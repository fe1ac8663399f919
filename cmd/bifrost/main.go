// Command bifrost runs a DNN model end to end on a simulated reconfigurable
// accelerator, printing per-layer cycle counts and psums — the CLI
// equivalent of the paper's Listing 1.
//
// Usage:
//
//	bifrost -model alexnet -arch maeri -ms 128 -mapping mrna
//	bifrost -model lenet -arch sigma -sparsity 50
//	bifrost -model path/to/model.json -arch tpu -verify
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	bifrost "repro"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bifrost: ")
	var (
		modelName = flag.String("model", "lenet", "model: alexnet, lenet, mlp, tiny, or a path to a JSON model")
		archName  = flag.String("arch", "maeri", "architecture: maeri, sigma, tpu")
		ms        = flag.Int("ms", 128, "multipliers (ms_size) for LINEAR architectures")
		dn        = flag.Int("dn", 64, "distribution network bandwidth (dn_bw)")
		rn        = flag.Int("rn", 64, "reduction network bandwidth (rn_bw)")
		sparsity  = flag.Int("sparsity", 0, "SIGMA sparsity_ratio in percent [0,100]")
		mapSrc    = flag.String("mapping", "basic", "mapping source for MAERI: basic, tuned, mrna")
		verify    = flag.Bool("verify", false, "verify accelerator outputs against the CPU operator inventory")
		seed      = flag.Int64("seed", 42, "weight/input seed")
		cfgOut    = flag.String("write-config", "", "also write the STONNE config file to this path")
		dotOut    = flag.String("dot", "", "also write the model graph in Graphviz DOT format to this path")
	)
	flag.Parse()

	arch, err := architecture(*archName, *ms, *dn, *rn, *sparsity)
	if err != nil {
		log.Fatal(err)
	}
	if *cfgOut != "" {
		if err := arch.WriteFile(*cfgOut); err != nil {
			log.Fatalf("writing config file: %v", err)
		}
		fmt.Printf("wrote %s\n", *cfgOut)
	}

	g, feeds, err := model(*modelName, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if *dotOut != "" {
		if err := os.WriteFile(*dotOut, []byte(g.DOT()), 0o644); err != nil {
			log.Fatalf("writing DOT file: %v", err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}

	sess, err := bifrost.NewSession(arch)
	if err != nil {
		log.Fatal(err)
	}
	sess.Verify = *verify
	if err := applyMappings(sess, arch, g, *mapSrc); err != nil {
		log.Fatal(err)
	}

	outs, err := sess.Run(g, feeds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sess.Report())
	for i, out := range outs {
		fmt.Printf("output %d: %v\n", i, out)
	}
}

func architecture(name string, ms, dn, rn, sparsity int) (bifrost.Architecture, error) {
	var ct bifrost.ControllerType
	switch name {
	case "maeri":
		ct = bifrost.MAERI
	case "sigma":
		ct = bifrost.SIGMA
	case "tpu":
		ct = bifrost.TPU
	default:
		return bifrost.Architecture{}, fmt.Errorf("unknown architecture %q (want maeri, sigma or tpu)", name)
	}
	arch := bifrost.DefaultArchitecture(ct)
	if ct != bifrost.TPU {
		arch.MSSize = ms
		arch.DNBandwidth = dn
		arch.RNBandwidth = rn
	}
	arch.SparsityRatio = 0
	if ct == bifrost.SIGMA {
		arch.SparsityRatio = sparsity
	}
	return arch, nil
}

func model(name string, seed int64) (*bifrost.Graph, map[string]*bifrost.Tensor, error) {
	var g *bifrost.Graph
	switch name {
	case "alexnet":
		g = bifrost.AlexNet(seed)
	case "lenet":
		g = bifrost.LeNet5(seed)
	case "mlp":
		g = models.MLP(seed, 256, 512, 10)
	case "tiny":
		g = models.TinyCNN(seed)
	default:
		if _, err := os.Stat(name); err != nil {
			return nil, nil, fmt.Errorf("model %q is neither built in nor a readable file", name)
		}
		var err error
		g, err = bifrost.LoadModel(name)
		if err != nil {
			return nil, nil, err
		}
	}
	if err := g.InferShapes(); err != nil {
		return nil, nil, err
	}
	feeds := make(map[string]*bifrost.Tensor)
	for _, in := range g.Inputs {
		feeds[in.Name] = tensor.RandomUniform(seed+7, 1, in.OutShape...)
	}
	return g, feeds, nil
}

// applyMappings fills the session's per-layer mappings from the chosen
// source. SIGMA and the TPU ignore mappings (auto-tiling / fixed dataflow).
func applyMappings(sess *bifrost.Session, arch bifrost.Architecture, g *bifrost.Graph, src string) error {
	if arch.Controller != bifrost.MAERI || src == "basic" {
		if src != "basic" && arch.Controller != bifrost.MAERI {
			fmt.Printf("note: %s ignores mappings (%s requested)\n", arch.Controller, src)
		}
		return nil
	}
	layers, err := models.ExtractLayers(g)
	if err != nil {
		return err
	}
	switch src {
	case "tuned":
		for _, l := range layers {
			if l.Op == graph.OpConv2D {
				m, _, err := bifrost.TuneConvMapping(arch, l.Conv, bifrost.TuneOptions{})
				if err != nil {
					return fmt.Errorf("tuning %s: %w", l.Name, err)
				}
				sess.ConvMappings[l.Name] = m
				fmt.Printf("tuned %s: %s\n", l.Name, m)
			} else {
				m, _, err := bifrost.TuneFCMapping(arch, l.M, l.K, l.N, bifrost.TuneOptions{Tuner: bifrost.TunerGrid})
				if err != nil {
					return fmt.Errorf("tuning %s: %w", l.Name, err)
				}
				sess.FCMappings[l.Name] = m
				fmt.Printf("tuned %s: T_S,T_K,T_N = %s\n", l.Name, m)
			}
		}
	case "mrna":
		mapper, err := bifrost.NewMRNAMapper(arch)
		if err != nil {
			return err
		}
		for _, l := range layers {
			if l.Op == graph.OpConv2D {
				m, cycles, err := mapper.MapConv(l.Conv)
				if err != nil {
					return fmt.Errorf("mRNA %s: %w", l.Name, err)
				}
				sess.ConvMappings[l.Name] = m
				fmt.Printf("mRNA %s: %s (est. %d cycles)\n", l.Name, m, cycles)
			} else {
				m, cycles, err := mapper.MapFC(l.M, l.K, l.N)
				if err != nil {
					return fmt.Errorf("mRNA %s: %w", l.Name, err)
				}
				sess.FCMappings[l.Name] = m
				fmt.Printf("mRNA %s: T_S,T_K,T_N = %s (est. %d cycles)\n", l.Name, m, cycles)
			}
		}
	default:
		return fmt.Errorf("unknown mapping source %q (want basic, tuned or mrna)", src)
	}
	return nil
}
