// MAERI mapping optimisation: the §VIII-B workflow on one conv and one FC
// layer. Three mapping sources are compared in simulated cycles:
//
//   - the automatically generated basic mapping (all tiles 1),
//   - the AutoTVM module tuning psums with the XGBoost tuner + early
//     stopping (the paper's Figure 11 configuration), and
//   - the integrated mRNA-style specialised mapper.
//
// go run ./examples/maeri_tuning
package main

import (
	"fmt"
	"log"

	bifrost "repro"
	"repro/internal/stonne/maeri"
	"repro/internal/stonne/mapping"
)

func main() {
	log.SetFlags(0)
	arch := bifrost.DefaultArchitecture(bifrost.MAERI)

	// A conv layer in the AlexNet conv3 mould, scaled down for speed.
	conv := bifrost.ConvDims{N: 1, C: 64, H: 13, W: 13, K: 96, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := conv.Resolve(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("conv layer: C=%d K=%d 3x3 on %dx%d (%d MACs), MAERI-%d\n",
		conv.C, conv.K, conv.H, conv.W, conv.MACs(), arch.MSSize)

	tuned, res, err := bifrost.TuneConvMapping(arch, conv, bifrost.TuneOptions{
		Tuner: bifrost.TunerXGB, Target: bifrost.TargetPsums, Trials: 600, EarlyStopping: 120, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AutoTVM (psums, XGBoost, early stop): %s after %d measurements (converged=%t)\n",
		tuned, res.Measured, res.Converged)

	mapper, err := bifrost.NewMRNAMapper(arch)
	if err != nil {
		log.Fatal(err)
	}
	mrnaConv, _, err := mapper.MapConv(conv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mRNA:                                 %s\n\n", mrnaConv)

	cycles := func(m bifrost.ConvMapping) int64 {
		eng, err := maeri.NewEngine(arch)
		if err != nil {
			log.Fatal(err)
		}
		eng.DryRun = true
		_, st, err := eng.Conv2D(nil, nil, conv, m)
		if err != nil {
			log.Fatal(err)
		}
		return st.Cycles
	}
	basic := cycles(mapping.Basic())
	auto := cycles(tuned)
	expert := cycles(mrnaConv)
	fmt.Printf("%-22s %12s %10s\n", "mapping source", "cycles", "speedup")
	fmt.Printf("%-22s %12d %10s\n", "basic (auto-generated)", basic, "1.0×")
	fmt.Printf("%-22s %12d %9.1f×\n", "AutoTVM", auto, float64(basic)/float64(auto))
	fmt.Printf("%-22s %12d %9.1f×\n\n", "mRNA", expert, float64(basic)/float64(expert))

	// The FC side of Table VI, on AlexNet's real fc2 geometry.
	fmt.Println("fc layer: 4096 -> 4096 neurons (AlexNet fc2)")
	fcTuned, _, err := bifrost.TuneFCMapping(arch, 1, 4096, 4096, bifrost.TuneOptions{Tuner: bifrost.TunerGrid})
	if err != nil {
		log.Fatal(err)
	}
	fcMRNA, _, err := mapper.MapFC(1, 4096, 4096)
	if err != nil {
		log.Fatal(err)
	}
	fcCycles := func(m bifrost.FCMapping) int64 {
		eng, err := maeri.NewEngine(arch)
		if err != nil {
			log.Fatal(err)
		}
		st, err := eng.DenseStats(1, 4096, 4096, m) // counters need the shapes alone
		if err != nil {
			log.Fatal(err)
		}
		return st.Cycles
	}
	fmt.Printf("%-22s %14s %12s\n", "mapping source", "T_S, T_K, T_N", "cycles")
	fmt.Printf("%-22s %14s %12d\n", "basic", mapping.BasicFC().String(), fcCycles(mapping.BasicFC()))
	fmt.Printf("%-22s %14s %12d\n", "AutoTVM (psums)", fcTuned.String(), fcCycles(fcTuned))
	fmt.Printf("%-22s %14s %12d\n", "mRNA", fcMRNA.String(), fcCycles(fcMRNA))
	fmt.Println("\nAutoTVM minimises psums, so it zeroes spatial reduction (T_K=1) and")
	fmt.Println("maximises parallel neurons; mRNA balances T_S and T_K and wins on")
	fmt.Println("cycles — exactly the Table VI / Figure 12b relationship.")
}
