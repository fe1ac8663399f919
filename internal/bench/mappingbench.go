package bench

import (
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/models"
	"repro/internal/mrna"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/tensor"
)

// TuneOptions bounds the AutoTVM-style searches used by Figures 11/12 and
// Table VI. The defaults mirror the paper: XGBoost tuner, psum target,
// early stopping at convergence.
type TuneOptions struct {
	Trials        int
	EarlyStopping int
	Seed          int64
}

// DefaultTuneOptions returns the budget used by the shipped benchmarks.
func DefaultTuneOptions() TuneOptions {
	return TuneOptions{Trials: 600, EarlyStopping: 120, Seed: 1}
}

// tunedConvMapping runs the psum-target XGB tuning for one conv layer. The
// psum measure is closed-form arithmetic, cheaper than a goroutine hand-off,
// so the trials run serially with or without a farm.
func tunedConvMapping(d tensor.ConvDims, ms int, o TuneOptions) (mapping.ConvMapping, error) {
	space, err := autotune.ConvMappingSpace(d, ms)
	if err != nil {
		return mapping.ConvMapping{}, err
	}
	opts := autotune.Options{Trials: o.Trials, EarlyStopping: o.EarlyStopping, Seed: o.Seed}
	res, err := autotune.XGBTuner{}.Tune(space, autotune.ConvPsumCost(d, ms), opts)
	if err != nil {
		return mapping.ConvMapping{}, err
	}
	return autotune.ConvMappingOf(res.Best.Config), nil
}

// tunedFCMapping runs the psum-target grid tuning for one dense layer (the
// FC space is small enough that the paper's converged XGB search and an
// exhaustive search coincide).
func tunedFCMapping(l models.LayerSpec, ms int) (mapping.FCMapping, error) {
	space := autotune.FCMappingSpace(l.K, l.N, ms)
	res, err := autotune.GridSearch{}.Tune(space, autotune.FCPsumCost(l.M, l.K, l.N, ms), autotune.Options{})
	if err != nil {
		return mapping.FCMapping{}, err
	}
	return autotune.FCMappingOf(res.Best.Config), nil
}

// dryCycles measures a mapping's cycle count with a counters-only MAERI job,
// through r (a farm caches and deduplicates it) when one is provided and
// inline otherwise.
func dryCycles(r job.Runner, cfg config.HWConfig, l models.LayerSpec, cm mapping.ConvMapping, fcm mapping.FCMapping) (int64, error) {
	j := job.Job{HW: cfg, DryRun: true}
	if l.Op == graph.OpConv2D {
		j.Kind = job.Conv2D
		j.Dims = l.Conv
		j.ConvMapping = cm
	} else {
		j.Kind = job.Dense
		j.FCMapping = fcm
		j.M, j.K, j.N = l.M, l.K, l.N
	}
	res, err := job.Do(r, j)
	return res.Stats.Cycles, err
}

// MappingRow is one layer's outcome under the three mapping sources —
// enough to render Figure 11 (speedups), Figure 12 (cycles) and Table VI
// (FC mapping tuples).
type MappingRow struct {
	Layer  string
	IsConv bool

	BasicCycles   int64
	AutoTVMCycles int64
	MRNACycles    int64

	AutoTVMConv mapping.ConvMapping
	MRNAConv    mapping.ConvMapping
	AutoTVMFC   mapping.FCMapping
	MRNAFC      mapping.FCMapping
}

// Speedup returns the Figure 11 metric: basic cycles over AutoTVM cycles.
func (r MappingRow) Speedup() float64 { return float64(r.BasicCycles) / float64(r.AutoTVMCycles) }

// MappingStudy runs the complete §VIII-B pipeline on each AlexNet layer:
// the automatically generated basic mapping, the AutoTVM-tuned mapping
// (psums target with early stopping) and the mRNA mapping, each measured in
// cycles on MAERI with 128 multipliers. With a farm, the cycle measurements
// run as cached dry-run jobs; rows are bit-identical to the serial study
// either way.
func MappingStudy(r job.Runner, scale Scale, o TuneOptions) ([]MappingRow, error) {
	cfg := config.Default(config.MAERIDenseWorkload)
	mapper, err := mrna.NewMapper(cfg, mrna.MinimizeCycles)
	if err != nil {
		return nil, err
	}
	var rows []MappingRow
	for _, l := range layers(scale) {
		row := MappingRow{Layer: l.Name, IsConv: l.Op == graph.OpConv2D}
		if l.Op == graph.OpConv2D {
			row.AutoTVMConv, err = tunedConvMapping(l.Conv, cfg.MSSize, o)
			if err != nil {
				return nil, fmt.Errorf("bench: tuning %s: %w", l.Name, err)
			}
			row.MRNAConv, _, err = mapper.MapConv(l.Conv)
			if err != nil {
				return nil, fmt.Errorf("bench: mRNA %s: %w", l.Name, err)
			}
			if row.BasicCycles, err = dryCycles(r, cfg, l, mapping.Basic(), mapping.FCMapping{}); err != nil {
				return nil, err
			}
			if row.AutoTVMCycles, err = dryCycles(r, cfg, l, row.AutoTVMConv, mapping.FCMapping{}); err != nil {
				return nil, err
			}
			if row.MRNACycles, err = dryCycles(r, cfg, l, row.MRNAConv, mapping.FCMapping{}); err != nil {
				return nil, err
			}
		} else {
			row.AutoTVMFC, err = tunedFCMapping(l, cfg.MSSize)
			if err != nil {
				return nil, fmt.Errorf("bench: tuning %s: %w", l.Name, err)
			}
			row.MRNAFC, _, err = mapper.MapFC(l.M, l.K, l.N)
			if err != nil {
				return nil, fmt.Errorf("bench: mRNA %s: %w", l.Name, err)
			}
			if row.BasicCycles, err = dryCycles(r, cfg, l, mapping.ConvMapping{}, mapping.BasicFC()); err != nil {
				return nil, err
			}
			if row.AutoTVMCycles, err = dryCycles(r, cfg, l, mapping.ConvMapping{}, row.AutoTVMFC); err != nil {
				return nil, err
			}
			if row.MRNACycles, err = dryCycles(r, cfg, l, mapping.ConvMapping{}, row.MRNAFC); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig11 prints the Figure 11 speedup panels.
func RenderFig11(w io.Writer, rows []MappingRow) {
	var convRows, fcRows [][]string
	var convSp, fcSp []float64
	for _, r := range rows {
		cells := []string{r.Layer, fmt.Sprint(r.BasicCycles), fmt.Sprint(r.AutoTVMCycles), fmt.Sprintf("%.1f×", r.Speedup())}
		if r.IsConv {
			convRows = append(convRows, cells)
			convSp = append(convSp, r.Speedup())
		} else {
			fcRows = append(fcRows, cells)
			fcSp = append(fcSp, r.Speedup())
		}
	}
	header := []string{"layer", "basic cycles", "AutoTVM cycles", "speedup"}
	Table(w, "Figure 11a — AutoTVM mapping speedup, convolutional layers (MAERI-128)", header, convRows)
	fmt.Fprintf(w, "  average speedup: %.1f× (paper: ~51×, max 77×)\n\n", mean(convSp))
	Table(w, "Figure 11b — AutoTVM mapping speedup, fully connected layers", header, fcRows)
	fmt.Fprintf(w, "  average speedup: %.1f× (paper: ~11×)\n", mean(fcSp))
}

// RenderTableVI prints Table VI: the FC mapping tuples (T_S, T_K, T_N).
func RenderTableVI(w io.Writer, rows []MappingRow) {
	header := []string{"Mapping"}
	basic := []string{"Basic"}
	autotvm := []string{"AutoTVM"}
	mrnaRow := []string{"mRNA"}
	for _, r := range rows {
		if r.IsConv {
			continue
		}
		header = append(header, r.Layer)
		basic = append(basic, mapping.BasicFC().String())
		autotvm = append(autotvm, r.AutoTVMFC.String())
		mrnaRow = append(mrnaRow, r.MRNAFC.String())
	}
	Table(w, "Table VI — FC mappings (T_S, T_K, T_N) on simulated MAERI", header, [][]string{basic, autotvm, mrnaRow})
}

// RenderFig12 prints the Figure 12 cycle panels and the headline mRNA
// advantages (paper: ~20% fewer cycles than AutoTVM on conv, ~67% on FC).
func RenderFig12(w io.Writer, rows []MappingRow) {
	var convRows, fcRows [][]string
	var convAdv, fcAdv []float64
	for _, r := range rows {
		adv := 1 - float64(r.MRNACycles)/float64(r.AutoTVMCycles)
		cells := []string{r.Layer, fmt.Sprint(r.BasicCycles), fmt.Sprint(r.AutoTVMCycles), fmt.Sprint(r.MRNACycles), fmt.Sprintf("%.0f%%", 100*adv)}
		if r.IsConv {
			convRows = append(convRows, cells)
			convAdv = append(convAdv, adv)
		} else {
			fcRows = append(fcRows, cells)
			fcAdv = append(fcAdv, adv)
		}
	}
	header := []string{"layer", "basic", "AutoTVM", "mRNA", "mRNA advantage"}
	Table(w, "Figure 12a — cycles per mapping source, convolutional layers (log scale in the paper)", header, convRows)
	fmt.Fprintf(w, "  average mRNA advantage: %.0f%% fewer cycles (paper: ~20%%)\n\n", 100*mean(convAdv))
	Table(w, "Figure 12b — cycles per mapping source, fully connected layers", header, fcRows)
	fmt.Fprintf(w, "  average mRNA advantage: %.0f%% fewer cycles (paper: ~67%%)\n", 100*mean(fcAdv))
}
