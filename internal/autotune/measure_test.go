package autotune

import (
	"reflect"
	"testing"

	"repro/internal/farm"
	"repro/internal/stonne/config"
	"repro/internal/tensor"
)

// resultsEqual compares two tuning results trial by trial.
func resultsEqual(t *testing.T, name string, a, b Result) {
	t.Helper()
	if a.Measured != b.Measured || a.Converged != b.Converged {
		t.Fatalf("%s: measured/converged diverged: %d/%v vs %d/%v",
			name, a.Measured, a.Converged, b.Measured, b.Converged)
	}
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("%s: trial counts diverged: %d vs %d", name, len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if !reflect.DeepEqual(a.Trials[i].Config.Values(), b.Trials[i].Config.Values()) ||
			a.Trials[i].Cost != b.Trials[i].Cost {
			t.Fatalf("%s: trial %d diverged: %v %v vs %v %v", name, i,
				a.Trials[i].Config, a.Trials[i].Cost, b.Trials[i].Config, b.Trials[i].Cost)
		}
	}
	if !reflect.DeepEqual(a.Best.Config.Values(), b.Best.Config.Values()) || a.Best.Cost != b.Best.Cost {
		t.Fatalf("%s: best diverged: %v vs %v", name, a.Best.Config, b.Best.Config)
	}
}

// TestBatchedTunersMatchSerial runs every tuner on a real cycle-cost space
// serially and through the farm, and requires the full trial logs to be
// bit-identical — the batched path may only change wall-clock time, never
// results.
func TestBatchedTunersMatchSerial(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = 16
	d := tensor.ConvDims{N: 1, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	space, err := ConvMappingSpace(d, cfg.MSSize)
	if err != nil {
		t.Fatal(err)
	}
	measure := ConvCycleCost(cfg, d)

	f := farm.New(4)
	defer f.Close()

	tuners := map[string]Tuner{
		"grid":   GridSearch{},
		"random": RandomSearch{},
		"ga":     GATuner{},
		"xgb":    XGBTuner{},
	}
	for name, tuner := range tuners {
		opts := Options{Trials: 120, EarlyStopping: 40, Seed: 3}
		serial, err := tuner.Tune(space, measure, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		opts.Measurer = FarmConvCycleMeasurer(f, cfg, d)
		farmed, err := tuner.Tune(space, measure, opts)
		if err != nil {
			t.Fatalf("%s farm: %v", name, err)
		}
		resultsEqual(t, name+"/farm", serial, farmed)
	}

	st := f.Stats()
	if st.Submitted == 0 {
		t.Fatal("farm measurer never submitted a job")
	}
	// Four tuners over one space revisit many configurations; the
	// content-addressed cache must have absorbed repeats.
	if st.Hits == 0 {
		t.Fatalf("no cache hits across repeated tuner runs: %+v", st)
	}
}

// TestFarmMeasurerWarmDiskReplay tunes against a disk-backed farm, closes
// it, and re-tunes through a cold farm on the same directory: the trial log
// must be bit-identical and the second search must run zero simulations —
// persistent caching makes repeated tuning sweeps (the common case across
// tuner comparisons and re-runs) free.
func TestFarmMeasurerWarmDiskReplay(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	cfg.MSSize = 16
	d := tensor.ConvDims{N: 1, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	space, err := ConvMappingSpace(d, cfg.MSSize)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	openFarm := func() *farm.Farm {
		ds, err := farm.NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return farm.New(4, farm.WithDiskStore(ds))
	}

	warm := openFarm()
	opts := Options{Trials: 120, EarlyStopping: 40, Seed: 3, Measurer: FarmConvCycleMeasurer(warm, cfg, d)}
	first, err := GridSearch{}.Tune(space, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()

	cold := openFarm()
	defer cold.Close()
	opts.Measurer = FarmConvCycleMeasurer(cold, cfg, d)
	second, err := GridSearch{}.Tune(space, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "grid/disk-replay", first, second)
	st := cold.Stats()
	if st.Completed != 0 || st.Misses != 0 {
		t.Fatalf("cold tuning run re-simulated: %+v", st)
	}
	if st.DiskHits == 0 {
		t.Fatalf("cold tuning run never hit the disk tier: %+v", st)
	}
}

// TestFarmFCCycleMeasurerMatchesSerial checks the dense path against
// FCCycleCost on the full FC space.
func TestFarmFCCycleMeasurerMatchesSerial(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	space := FCMappingSpace(64, 32, cfg.MSSize)
	serialMeasure := FCCycleCost(cfg, 1, 64, 32)

	f := farm.New(4)
	defer f.Close()
	opts := Options{}
	serial, err := GridSearch{}.Tune(space, serialMeasure, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Measurer = FarmFCCycleMeasurer(f, cfg, 1, 64, 32)
	farmed, err := GridSearch{}.Tune(space, serialMeasure, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "fc-grid", serial, farmed)
}
