// Package bench regenerates every table and figure of the Bifrost paper's
// evaluation (§VIII): Figure 9 (SIGMA sparsity sweep), Figure 10 (MAERI
// optimal vs suboptimal mappings across multiplier counts), Figure 11
// (AutoTVM speedup over the basic mapping), Table VI (FC mappings chosen by
// basic/AutoTVM/mRNA) and Figure 12 (cycles under the three mapping
// sources). Each experiment returns structured rows and can render itself
// as a text table or CSV.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"repro/internal/autotune"
	"repro/internal/graph"
	"repro/internal/job"
	"repro/internal/models"
	"repro/internal/stonne/config"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// runJobStats runs a job set through r — or inline and serially when r is
// nil — returning only each job's Stats. Jobs are built lazily, one chunk
// of 2×GOMAXPROCS at a time, so a sweep's peak memory stays at a handful
// of layers' operand tensors rather than the whole network's. Both paths
// funnel through job.Run, so results are bit-identical; only wall-clock
// time differs.
func runJobStats(r job.Runner, builders []func() job.Job) ([]stats.Stats, error) {
	out := make([]stats.Stats, len(builders))
	chunk := 2 * runtime.GOMAXPROCS(0)
	for lo := 0; lo < len(builders); lo += chunk {
		jobs := make([]job.Job, 0, chunk)
		for _, build := range builders[lo:min(lo+chunk, len(builders))] {
			jobs = append(jobs, build())
		}
		results, errs := job.DoBatch(r, jobs)
		for i, res := range results {
			if errs[i] != nil {
				return nil, fmt.Errorf("job %d: %w", lo+i, errs[i])
			}
			out[lo+i] = res.Stats
		}
	}
	return out, nil
}

// Scale selects the workload size: the paper's full AlexNet layers, or
// geometry-faithful mini layers for fast regression runs.
type Scale int

// Workload scales.
const (
	Mini Scale = iota // scaled-down AlexNet: well under a second per experiment
	Full              // the paper's AlexNet: about 4 s for every experiment together
)

func layers(s Scale) []models.LayerSpec {
	if s == Full {
		return models.AlexNetLayers()
	}
	return models.AlexNetMiniLayers()
}

// Table renders rows with a header as fixed-width text.
func Table(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

// CSV renders rows as comma-separated values.
func CSV(w io.Writer, header []string, rows [][]string) {
	fmt.Fprintln(w, strings.Join(header, ","))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// ---------------------------------------------------------------------------
// Figure 9: SIGMA at 0% vs 50% sparsity.

// Fig9Row is one AlexNet layer's cycle counts at the two sparsity levels.
type Fig9Row struct {
	Layer          string
	IsConv         bool
	CyclesDense    int64
	CyclesSparse50 int64
}

// Reduction returns the fractional cycle reduction at 50% sparsity.
func (r Fig9Row) Reduction() float64 {
	return 1 - float64(r.CyclesSparse50)/float64(r.CyclesDense)
}

// Fig9 runs every AlexNet layer on SIGMA at 0% and 50% weight sparsity.
// The layer×sparsity grid is one batched job set: with a farm the
// simulations run concurrently across its workers (and repeated sweeps are
// served from the result cache); with r == nil they run serially inline.
func Fig9(r job.Runner, scale Scale, seed int64) ([]Fig9Row, error) {
	ls := layers(scale)
	var builders []func() job.Job
	for i, l := range ls {
		for _, sparsity := range []float64{0, 0.5} {
			builders = append(builders, func() job.Job {
				cfg := config.Default(config.SIGMASparseGEMM)
				cfg.SparsityRatio = int(sparsity * 100)
				j := job.Job{HW: cfg, Seed: seed + int64(i)}
				if l.Op == graph.OpConv2D {
					d := l.Conv
					ker := tensor.RandomUniform(seed+int64(i)+100, 1, d.K, d.C/d.G, d.R, d.S)
					ensureDense(ker)
					tensor.Prune(ker, sparsity)
					j.Kind = job.Conv2D
					j.Dims = d
					j.ConvMapping = mapping.Basic()
					j.Input = tensor.RandomUniform(seed+int64(i), 1, d.N, d.C, d.H, d.W)
					j.Weights = ker
				} else {
					w := tensor.RandomUniform(seed+int64(i)+100, 1, l.N, l.K)
					ensureDense(w)
					tensor.Prune(w, sparsity)
					j.Kind = job.Dense
					j.FCMapping = mapping.BasicFC()
					j.Input = tensor.RandomUniform(seed+int64(i), 1, l.M, l.K)
					j.Weights = w
				}
				return j
			})
		}
	}
	results, err := runJobStats(r, builders)
	if err != nil {
		return nil, fmt.Errorf("bench: fig9: %w", err)
	}
	var rows []Fig9Row
	for i, l := range ls {
		rows = append(rows, Fig9Row{
			Layer:          l.Name,
			IsConv:         l.Op == graph.OpConv2D,
			CyclesDense:    results[2*i].Cycles,
			CyclesSparse50: results[2*i+1].Cycles,
		})
	}
	return rows, nil
}

// ensureDense replaces exact zeros from the RNG so the 0%-sparsity baseline
// is fully dense.
func ensureDense(t *tensor.Tensor) {
	for i, v := range t.Data() {
		if v == 0 {
			t.Data()[i] = 0.01
		}
	}
}

// RenderFig9 prints the Figure 9 tables (conv and FC panels) and the
// average reductions the paper quotes (≈44% conv, ≈54% FC).
func RenderFig9(w io.Writer, rows []Fig9Row) {
	var convRows, fcRows [][]string
	var convRed, fcRed []float64
	for _, r := range rows {
		cells := []string{r.Layer, fmt.Sprint(r.CyclesDense), fmt.Sprint(r.CyclesSparse50), fmt.Sprintf("%.1f%%", 100*r.Reduction())}
		if r.IsConv {
			convRows = append(convRows, cells)
			convRed = append(convRed, r.Reduction())
		} else {
			fcRows = append(fcRows, cells)
			fcRed = append(fcRed, r.Reduction())
		}
	}
	header := []string{"layer", "cycles@0%", "cycles@50%", "reduction"}
	Table(w, "Figure 9a — SIGMA convolutional layers", header, convRows)
	fmt.Fprintf(w, "  average reduction: %.1f%% (paper: ~44%%)\n\n", 100*mean(convRed))
	Table(w, "Figure 9b — SIGMA fully connected layers", header, fcRows)
	fmt.Fprintf(w, "  average reduction: %.1f%% (paper: ~54%%)\n", 100*mean(fcRed))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---------------------------------------------------------------------------
// Figure 10: optimal vs suboptimal mapping across multiplier counts.

// Fig10Row is the exhaustive-search result at one multiplier count.
type Fig10Row struct {
	Multipliers    int
	OptimalCycles  int64
	Suboptimal     int64
	OptimalMapping mapping.ConvMapping
}

// Fig10Conv is the paper's small workload: an NCHW convolution with a
// 1×2×10×10 input tensor (§VIII-B), given a 3×3 kernel with 4 filters.
func Fig10Conv() tensor.ConvDims {
	d := tensor.ConvDims{N: 1, C: 2, H: 10, W: 10, K: 4, R: 3, S: 3}
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	return d
}

// Fig10 grid-searches the full mapping space at each multiplier count,
// optimising for cycles, and reports the globally optimal and suboptimal
// (worst) mappings — the two curves of Figure 10. With a farm, every
// feasible mapping in the space is measured as a concurrent dry-run job;
// the resulting curves are bit-identical to the serial search.
func Fig10(r job.Runner, multipliers []int) ([]Fig10Row, error) {
	if len(multipliers) == 0 {
		multipliers = []int{8, 16, 32, 64, 128}
	}
	d := Fig10Conv()
	var rows []Fig10Row
	for _, ms := range multipliers {
		cfg := config.Default(config.MAERIDenseWorkload)
		cfg.MSSize = ms
		space, err := autotune.ConvMappingSpace(d, ms)
		if err != nil {
			return nil, err
		}
		opts := autotune.Options{}
		if r != nil {
			opts.Measurer = autotune.FarmConvCycleMeasurer(r, cfg, d)
		}
		res, err := autotune.GridSearch{}.Tune(space, autotune.ConvCycleCost(cfg, d), opts)
		if err != nil {
			return nil, fmt.Errorf("bench: fig10 ms=%d: %w", ms, err)
		}
		worst, ok := autotune.Worst(res)
		if !ok {
			return nil, fmt.Errorf("bench: fig10 ms=%d: no feasible mappings", ms)
		}
		rows = append(rows, Fig10Row{
			Multipliers:    ms,
			OptimalCycles:  int64(res.Best.Cost.Primary),
			Suboptimal:     int64(worst.Cost.Primary),
			OptimalMapping: autotune.ConvMappingOf(res.Best.Config),
		})
	}
	return rows, nil
}

// RenderFig10 prints the Figure 10 series with the paper's headline ratios.
func RenderFig10(w io.Writer, rows []Fig10Row) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.Multipliers), fmt.Sprint(r.OptimalCycles), fmt.Sprint(r.Suboptimal),
			fmt.Sprintf("%.1f×", float64(r.Suboptimal)/float64(r.OptimalCycles)),
			r.OptimalMapping.String(),
		})
	}
	Table(w, "Figure 10 — MAERI 1×2×10×10 conv, optimal vs suboptimal mapping (log-scale plot in the paper)",
		[]string{"multipliers", "optimal", "suboptimal", "gap", "optimal mapping"}, cells)
	if len(rows) >= 2 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Fprintf(w, "  optimal %d-mult vs %d-mult: %.1f× (paper: ~12×); suboptimal/optimal at %d: %.1f× (paper: ~76×)\n",
			first.Multipliers, last.Multipliers,
			float64(first.OptimalCycles)/float64(last.OptimalCycles),
			last.Multipliers, float64(last.Suboptimal)/float64(last.OptimalCycles))
	}
}
