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

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/stonne/config"
)

var update = flag.Bool("update", false, "rewrite testdata/xgb_trial_logs.golden from the current tuner")

const trialLogGolden = "testdata/xgb_trial_logs.golden"

// layerSearch is one AlexNet geometry's mapping space and cost function.
type layerSearch struct {
	name    string
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
		s := layerSearch{name: l.Name}
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
	if *update {
		if err := os.MkdirAll(filepath.Dir(trialLogGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(trialLogGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(trialLogGolden)
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
		t.Fatalf("golden has %d searches, the test ran %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trial log changed:\n got %s\nwant %s", got[i], want[i])
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
