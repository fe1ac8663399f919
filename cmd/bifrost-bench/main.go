// Command bifrost-bench regenerates the tables and figures of the Bifrost
// paper's evaluation (§VIII). By default it runs every experiment on the
// geometry-faithful mini-AlexNet layers; -full switches to the paper's
// AlexNet (Figure 9 and the basic-mapping columns then simulate ~10⁹-MAC
// layers; counters come from the analytic models, so `-full -exp all` still
// takes about 4 s on a 2-core Xeon VM).
//
// Usage:
//
//	bifrost-bench                    # all experiments, mini scale
//	bifrost-bench -exp fig10        # one experiment
//	bifrost-bench -full -csv out/   # paper scale, CSVs alongside the text
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/farm"
	"repro/internal/job"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bifrost-bench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: all, fig9, fig10, fig11, table6, fig12, ablation")
		full    = flag.Bool("full", false, "use the paper's full AlexNet layers (slow) instead of mini")
		csvDir  = flag.String("csv", "", "also write CSV files into this directory")
		trials  = flag.Int("trials", 600, "AutoTVM trial budget for fig11/table6/fig12")
		seed    = flag.Int64("seed", 1, "seed for weights and searches")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "simulation-farm workers; 0 runs every experiment serially")
	)
	flag.Parse()

	scale := bench.Mini
	scaleName := "mini-AlexNet"
	if *full {
		scale = bench.Full
		scaleName = "full AlexNet"
	}
	var runner job.Runner // nil: every experiment runs inline
	farmName := "serial"
	if *workers > 0 {
		fm := farm.New(*workers)
		defer fm.Close()
		runner = fm
		farmName = fmt.Sprintf("%d-worker farm", fm.Workers())
	}
	fmt.Printf("Bifrost evaluation harness — %s workloads, %s\n\n", scaleName, farmName)
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	var study []bench.MappingRow
	mappingStudy := func() []bench.MappingRow {
		if study != nil {
			return study
		}
		opts := bench.DefaultTuneOptions()
		opts.Trials = *trials
		opts.Seed = *seed
		start := time.Now()
		rows, err := bench.MappingStudy(runner, scale, opts)
		if err != nil {
			log.Fatalf("mapping study: %v", err)
		}
		fmt.Printf("(mapping study: tuned + mRNA-mapped + simulated %d layers in %v)\n\n", len(rows), time.Since(start).Round(time.Millisecond))
		study = rows
		return study
	}

	if want("fig9") {
		start := time.Now()
		rows, err := bench.Fig9(runner, scale, *seed)
		if err != nil {
			log.Fatalf("fig9: %v", err)
		}
		bench.RenderFig9(os.Stdout, rows)
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
		writeCSV(*csvDir, "fig9.csv", []string{"layer", "cycles_dense", "cycles_sparse50"}, func(w *strings.Builder) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%d,%d\n", r.Layer, r.CyclesDense, r.CyclesSparse50)
			}
		})
	}
	if want("fig10") {
		start := time.Now()
		rows, err := bench.Fig10(runner, nil)
		if err != nil {
			log.Fatalf("fig10: %v", err)
		}
		bench.RenderFig10(os.Stdout, rows)
		fmt.Printf("(%v)\n\n", time.Since(start).Round(time.Millisecond))
		writeCSV(*csvDir, "fig10.csv", []string{"multipliers", "optimal_cycles", "suboptimal_cycles"}, func(w *strings.Builder) {
			for _, r := range rows {
				fmt.Fprintf(w, "%d,%d,%d\n", r.Multipliers, r.OptimalCycles, r.Suboptimal)
			}
		})
	}
	if want("fig11") {
		bench.RenderFig11(os.Stdout, mappingStudy())
		fmt.Println()
	}
	if want("table6") {
		bench.RenderTableVI(os.Stdout, mappingStudy())
		fmt.Println()
	}
	if want("fig12") {
		rows := mappingStudy()
		bench.RenderFig12(os.Stdout, rows)
		fmt.Println()
		writeCSV(*csvDir, "fig12.csv", []string{"layer", "basic", "autotvm", "mrna"}, func(w *strings.Builder) {
			for _, r := range rows {
				fmt.Fprintf(w, "%s,%d,%d,%d\n", r.Layer, r.BasicCycles, r.AutoTVMCycles, r.MRNACycles)
			}
		})
	}
	if want("ablation") {
		abRows, err := bench.AblationAccumBuffer()
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		bench.RenderAccumBuffer(os.Stdout, abRows)
		fmt.Println()
		bwRows, err := bench.AblationBandwidth()
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		bench.RenderBandwidth(os.Stdout, bwRows)
		fmt.Println()
		tgRows, err := bench.AblationTuningTarget(*seed)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		bench.RenderTuningTarget(os.Stdout, tgRows)
		fmt.Println()
		tnRows, err := bench.AblationTuners(*seed)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		bench.RenderTuners(os.Stdout, tnRows)
		fmt.Println()
	}
	if !want("fig9") && !want("fig10") && !want("fig11") && !want("table6") && !want("fig12") && !want("ablation") {
		log.Fatalf("unknown experiment %q (want all, fig9, fig10, fig11, table6, fig12, ablation)", *exp)
	}
}

func writeCSV(dir, name string, header []string, fill func(*strings.Builder)) {
	if dir == "" {
		return
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ",") + "\n")
	fill(&sb)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		log.Fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n\n", path)
}
