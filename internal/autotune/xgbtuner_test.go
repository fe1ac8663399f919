package autotune

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
)

var update = flag.Bool("update", false, "rewrite the trial-log goldens under testdata from the current tuners")

// layerSearch is one AlexNet geometry's mapping space and cost function.
type layerSearch struct {
	name    string
	dense   bool
	space   *Space
	measure MeasureFunc
}

// alexnetSearches returns the eight AlexNet geometries on default MAERI
// with the given target: "cycles" (ConvCycleCost/FCCycleCost, integer
// costs) or "psums" (ConvPsumCost/FCPsumCost, whose Secondary step count
// makes the XGBTuner's regression targets non-integer).
func alexnetSearches(tb testing.TB, target string) []layerSearch {
	tb.Helper()
	cfg := config.Default(config.MAERIDenseWorkload)
	var out []layerSearch
	for _, l := range models.AlexNetLayers() {
		s := layerSearch{name: l.Name, dense: l.Op != graph.OpConv2D}
		if l.Op == graph.OpConv2D {
			var err error
			if s.space, err = ConvMappingSpace(l.Conv, cfg.MSSize); err != nil {
				tb.Fatal(err)
			}
			if target == "cycles" {
				s.measure = ConvCycleCost(cfg, l.Conv)
			} else {
				s.measure = ConvPsumCost(l.Conv, cfg.MSSize)
			}
		} else {
			s.space = FCMappingSpace(l.K, l.N, cfg.MSSize)
			if target == "cycles" {
				s.measure = FCCycleCost(cfg, l.M, l.K, l.N)
			} else {
				s.measure = FCPsumCost(l.M, l.K, l.N, cfg.MSSize)
			}
		}
		out = append(out, s)
	}
	return out
}

// trialLogHash is the SHA-256 of a search's trial log: every trial's knob
// values and the bits of both cost components, in trial order.
func trialLogHash(trials []Trial) string {
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(len(trials)))
	for _, tr := range trials {
		for _, v := range tr.Config.Values() {
			put(uint64(int64(v)))
		}
		put(math.Float64bits(tr.Cost.Primary))
		put(math.Float64bits(tr.Cost.Secondary))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares got, one line per search, with the golden file at
// path, or rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d searches, the test ran %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trial log changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestXGBTunerTrialLogGolden pins the XGBTuner's complete trial logs — 600
// trials per search, both targets, seeds 1–3, every AlexNet geometry — so a
// change to the cost model's training or the candidate scoring that moves
// a single measured configuration fails here. Regenerate with -update only
// when a change is meant to alter the search.
func TestXGBTunerTrialLogGolden(t *testing.T) {
	var got []string
	for _, target := range []string{"cycles", "psums"} {
		for _, s := range alexnetSearches(t, target) {
			for seed := int64(1); seed <= 3; seed++ {
				// A search that finds nothing feasible still logs its trials.
				res, _ := XGBTuner{}.Tune(s.space, s.measure, Options{Trials: 600, Seed: seed})
				got = append(got, fmt.Sprintf("%s %s %d %s", s.name, target, seed, trialLogHash(res.Trials)))
			}
		}
	}
	checkGolden(t, "testdata/xgb_trial_logs.golden", got)
}

// TestTunerTrialLogsGolden pins every tuner's trial log and where it stops:
// grid search on the FC geometries, and random, GA and XGB search on every
// AlexNet geometry with early stopping off and at 120, seeds 1–3, both
// targets. Each line ends with the best primary cost, or "none" when the
// search found nothing feasible. The conv searches get 600 trials; the FC
// spaces hold 320 points, so they get 300, a budget every tuner can spend
// (the termination test covers a budget beyond the space).
func TestTunerTrialLogsGolden(t *testing.T) {
	tuners := []struct {
		name  string
		tuner Tuner
	}{{"random", RandomSearch{}}, {"ga", GATuner{}}, {"xgb", XGBTuner{}}}
	line := func(tuner, layer, target string, early int, seed int64, res Result, err error) string {
		best := "none"
		if err == nil {
			best = fmt.Sprint(res.Best.Cost.Primary)
		}
		return fmt.Sprintf("%s %s %s early=%d seed=%d %s best=%s", tuner, layer, target, early, seed, trialLogHash(res.Trials), best)
	}
	var got []string
	for _, target := range []string{"cycles", "psums"} {
		for _, s := range alexnetSearches(t, target) {
			trials := 600
			if s.dense {
				res, err := GridSearch{}.Tune(s.space, s.measure, Options{})
				got = append(got, line("grid", s.name, target, 0, 0, res, err))
				trials = 300
			}
			for _, tu := range tuners {
				for _, early := range []int{0, 120} {
					for seed := int64(1); seed <= 3; seed++ {
						res, err := tu.tuner.Tune(s.space, s.measure, Options{Trials: trials, EarlyStopping: early, Seed: seed})
						got = append(got, line(tu.name, s.name, target, early, seed, res, err))
					}
				}
			}
		}
	}
	checkGolden(t, "testdata/trial_logs.golden", got)
}

// TestTunersStopWhenSpaceExhausted gives every tuner a budget beyond the
// 320 points of an FC space and no early stopping: each must measure the
// whole space once and return. A search that never returns fails at the
// deadline instead of hanging the suite.
func TestTunersStopWhenSpaceExhausted(t *testing.T) {
	cfg := config.Default(config.MAERIDenseWorkload)
	space := FCMappingSpace(9216, 4096, cfg.MSSize)
	measure := FCCycleCost(cfg, 1, 9216, 4096)
	for _, tu := range []struct {
		name  string
		tuner Tuner
	}{{"grid", GridSearch{}}, {"random", RandomSearch{}}, {"ga", GATuner{}}, {"xgb", XGBTuner{}}} {
		type outcome struct {
			res Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := tu.tuner.Tune(space, measure, Options{Trials: 600, Seed: 1})
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Errorf("%s: %v", tu.name, o.err)
			} else if o.res.Measured != 320 {
				t.Errorf("%s measured %d of the space's 320 points", tu.name, o.res.Measured)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10 s of a 320-point space", tu.name)
		}
	}
}

// BenchmarkXGBTunerAlexNet is one op = the eight AlexNet geometries each
// searched once by the default XGBTuner (600 trials, cycles target, serial
// MeasureFunc) — the search loop the tune_alexnet_cycles workload runs,
// without the farm. Measurement is about 1 % of it; the rest is the cost
// model's refits and candidate scoring.
func BenchmarkXGBTunerAlexNet(b *testing.B) {
	searches := alexnetSearches(b, "cycles")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range searches {
			if _, err := (XGBTuner{}).Tune(s.space, s.measure, Options{Trials: 600, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
