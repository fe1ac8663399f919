package bench

import (
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/job"
	"repro/internal/stonne/config"
	"repro/internal/stonne/energy"
	"repro/internal/stonne/mapping"
	"repro/internal/stonne/stats"
	"repro/internal/tensor"
)

// The ablation studies quantify the design decisions the paper discusses in
// prose: the accumulation buffer (Table III), distribution bandwidth, the
// psums-vs-cycles tuning target trade-off (§VII-B) and the choice of tuner
// (§VII: grid, GA, XGBoost).

func ablationConv() tensor.ConvDims {
	d := tensor.ConvDims{N: 1, C: 16, H: 14, W: 14, K: 32, R: 3, S: 3, PadH: 1, PadW: 1}
	if err := d.Resolve(); err != nil {
		panic(err)
	}
	return d
}

// dryConvStats measures a conv mapping with a counters-only MAERI job.
func dryConvStats(cfg config.HWConfig, d tensor.ConvDims, m mapping.ConvMapping) (stats.Stats, error) {
	res, err := job.Run(job.Job{HW: cfg, Kind: job.Conv2D, Dims: d, ConvMapping: m, DryRun: true})
	return res.Stats, err
}

// AccumBufferRow compares cycles with and without the accumulation buffer
// for one virtual-neuron size.
type AccumBufferRow struct {
	VNSize        int
	Mapping       mapping.ConvMapping
	WithBuffer    int64
	WithoutBuffer int64
}

// AblationAccumBuffer sweeps VN sizes: small VNs accumulate temporally and
// suffer most when the buffer is removed (psums recirculate through the
// distribution network).
func AblationAccumBuffer() ([]AccumBufferRow, error) {
	d := ablationConv()
	maps := []mapping.ConvMapping{
		{TR: 1, TS: 1, TC: 1, TK: 8, TG: 1, TN: 1, TX: 4, TY: 4},  // VN=1
		{TR: 3, TS: 1, TC: 1, TK: 8, TG: 1, TN: 1, TX: 2, TY: 2},  // VN=3
		{TR: 3, TS: 3, TC: 1, TK: 4, TG: 1, TN: 1, TX: 2, TY: 1},  // VN=9
		{TR: 3, TS: 3, TC: 8, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1},  // VN=72
		{TR: 3, TS: 3, TC: 14, TK: 1, TG: 1, TN: 1, TX: 1, TY: 1}, // VN=126
	}
	base := config.Default(config.MAERIDenseWorkload)
	base.DNBandwidth = 16 // modest bandwidth makes recirculation visible
	noAB := base
	noAB.AccumBuffer = false
	var rows []AccumBufferRow
	for _, m := range maps {
		with, err := dryConvStats(base, d, m)
		if err != nil {
			return nil, err
		}
		without, err := dryConvStats(noAB, d, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AccumBufferRow{VNSize: m.VNSize(), Mapping: m, WithBuffer: with.Cycles, WithoutBuffer: without.Cycles})
	}
	return rows, nil
}

// RenderAccumBuffer prints the accumulation-buffer ablation.
func RenderAccumBuffer(w io.Writer, rows []AccumBufferRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprint(r.VNSize), fmt.Sprint(r.WithBuffer), fmt.Sprint(r.WithoutBuffer),
			fmt.Sprintf("%.2f×", float64(r.WithoutBuffer)/float64(r.WithBuffer)),
		})
	}
	Table(w, "Ablation — accumulation buffer (MAERI, dn_bw=16): removing the buffer penalises small-VN mappings",
		[]string{"VN size", "with buffer", "without", "slowdown"}, cells)
}

// BandwidthRow is one distribution-bandwidth design point.
type BandwidthRow struct {
	DNBandwidth int
	Cycles      int64
	EnergyNJ    float64
}

// AblationBandwidth sweeps dn_bw for a bandwidth-hungry mapping, reporting
// cycles and estimated energy — the performance/efficiency trade-off that
// motivates the paper's planned energy tuning target.
func AblationBandwidth() ([]BandwidthRow, error) {
	d := ablationConv()
	m := mapping.ConvMapping{TR: 1, TS: 1, TC: 4, TK: 8, TG: 1, TN: 1, TX: 2, TY: 2}
	model := energy.Default45nm()
	var rows []BandwidthRow
	for _, bw := range []int{2, 4, 8, 16, 32, 64} {
		cfg := config.Default(config.MAERIDenseWorkload)
		cfg.DNBandwidth = bw
		st, err := dryConvStats(cfg, d, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BandwidthRow{DNBandwidth: bw, Cycles: st.Cycles, EnergyNJ: model.Estimate(st).TotalPJ() / 1e3})
	}
	return rows, nil
}

// RenderBandwidth prints the bandwidth ablation.
func RenderBandwidth(w io.Writer, rows []BandwidthRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{fmt.Sprint(r.DNBandwidth), fmt.Sprint(r.Cycles), fmt.Sprintf("%.1f", r.EnergyNJ)})
	}
	Table(w, "Ablation — distribution bandwidth sweep (fixed mapping)",
		[]string{"dn_bw", "cycles", "energy (nJ)"}, cells)
}

// TargetRow compares tuning targets on the same layer and budget.
type TargetRow struct {
	Target   string
	Mapping  mapping.ConvMapping
	Cycles   int64
	Measured int
}

// AblationTuningTarget tunes the same conv layer against psums, cycles and
// energy, then scores every winner in simulated cycles — quantifying the
// paper's claim that psums are "only loosely correlated with performance"
// but far cheaper to search with.
func AblationTuningTarget(seed int64) ([]TargetRow, error) {
	d := ablationConv()
	cfg := config.Default(config.MAERIDenseWorkload)
	space, err := autotune.ConvMappingSpace(d, cfg.MSSize)
	if err != nil {
		return nil, err
	}
	targets := []struct {
		name    string
		measure autotune.MeasureFunc
	}{
		{"psums", autotune.ConvPsumCost(d, cfg.MSSize)},
		{"cycles", autotune.ConvCycleCost(cfg, d)},
		{"energy", autotune.ConvEnergyCost(cfg, d, energy.Default45nm())},
		{"edp", autotune.ConvEDPCost(cfg, d, energy.Default45nm())},
	}
	var rows []TargetRow
	for _, t := range targets {
		res, err := (autotune.XGBTuner{}).Tune(space, t.measure, autotune.Options{Trials: 400, EarlyStopping: 100, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("bench: target %s: %w", t.name, err)
		}
		m := autotune.ConvMappingOf(res.Best.Config)
		st, err := dryConvStats(cfg, d, m)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TargetRow{Target: t.name, Mapping: m, Cycles: st.Cycles, Measured: res.Measured})
	}
	return rows, nil
}

// RenderTuningTarget prints the target ablation.
func RenderTuningTarget(w io.Writer, rows []TargetRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Target, fmt.Sprint(r.Cycles), fmt.Sprint(r.Measured), r.Mapping.String()})
	}
	Table(w, "Ablation — tuning target (same layer, XGB tuner, same budget), scored in simulated cycles",
		[]string{"target", "cycles of winner", "measurements", "winning mapping"}, cells)
}

// TunerRow compares search strategies on the same space and measure.
type TunerRow struct {
	Tuner     string
	BestCost  float64
	Measured  int
	Converged bool
}

// AblationTuners runs grid, random, GA and XGB tuners over the FC cycle
// space of an AlexNet-fc2-like layer, reporting the best cost each finds —
// the §VII claim that learned tuners "more efficiently search a subset of
// mapping space".
func AblationTuners(seed int64) ([]TunerRow, error) {
	cfg := config.Default(config.MAERIDenseWorkload)
	const inN, outN = 1024, 512
	space := autotune.FCMappingSpace(inN, outN, cfg.MSSize)
	measure := autotune.FCCycleCost(cfg, 1, inN, outN)
	budget := autotune.Options{Trials: 80, EarlyStopping: 0, Seed: seed}
	tuners := []struct {
		name  string
		tuner autotune.Tuner
		opts  autotune.Options
	}{
		{"grid (exhaustive)", autotune.GridSearch{}, autotune.Options{}},
		{"random", autotune.RandomSearch{}, budget},
		{"ga", autotune.GATuner{}, budget},
		{"xgb", autotune.XGBTuner{}, budget},
	}
	var rows []TunerRow
	for _, t := range tuners {
		res, err := t.tuner.Tune(space, measure, t.opts)
		if err != nil {
			return nil, fmt.Errorf("bench: tuner %s: %w", t.name, err)
		}
		rows = append(rows, TunerRow{Tuner: t.name, BestCost: res.Best.Cost.Primary, Measured: res.Measured, Converged: res.Converged})
	}
	return rows, nil
}

// RenderTuners prints the tuner ablation.
func RenderTuners(w io.Writer, rows []TunerRow) {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{r.Tuner, fmt.Sprintf("%.0f", r.BestCost), fmt.Sprint(r.Measured)})
	}
	Table(w, "Ablation — tuner comparison (FC 1024→512, cycles target)",
		[]string{"tuner", "best cycles", "measurements"}, cells)
}
