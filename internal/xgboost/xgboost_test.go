package xgboost

import (
	"math"
	"math/rand"
	"testing"
)

func dataset(n int, seed int64, f func([]float64) float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		y[i] = f(x[i])
	}
	return x, y
}

func TestFitsConstant(t *testing.T) {
	x, y := dataset(50, 1, func([]float64) float64 { return 7 })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(x, y); mse > 1e-3 {
		t.Fatalf("constant target MSE = %v", mse)
	}
}

func TestFitsLinear(t *testing.T) {
	x, y := dataset(300, 2, func(v []float64) float64 { return 3*v[0] - 2*v[1] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Baseline: predicting the mean.
	var mean, varY float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(y))
	if mse := m.MSE(x, y); mse > varY/10 {
		t.Fatalf("linear fit MSE %v not ≪ variance %v", mse, varY)
	}
}

func TestFitsInteraction(t *testing.T) {
	if testing.Short() {
		t.Skip("100 boosting rounds on 500 samples takes ~0.1s")
	}
	// Tuning cost surfaces are highly non-linear; trees must capture x0·x1.
	x, y := dataset(500, 3, func(v []float64) float64 { return v[0] * v[1] })
	p := DefaultParams()
	p.Rounds = 100
	p.MaxDepth = 5
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	var mean, varY float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(y))
	if mse := m.MSE(x, y); mse > varY/5 {
		t.Fatalf("interaction fit MSE %v not ≪ variance %v", mse, varY)
	}
}

func TestMoreRoundsReduceTrainError(t *testing.T) {
	x, y := dataset(200, 4, func(v []float64) float64 { return math.Sin(v[0]) * v[1] })
	short := DefaultParams()
	short.Rounds = 5
	long := DefaultParams()
	long.Rounds = 80
	m1, err := Train(x, y, short)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, long)
	if err != nil {
		t.Fatal(err)
	}
	if m2.MSE(x, y) >= m1.MSE(x, y) {
		t.Fatalf("80 rounds (%v) must beat 5 rounds (%v) on train MSE", m2.MSE(x, y), m1.MSE(x, y))
	}
}

func TestGeneralisesToHeldOut(t *testing.T) {
	x, y := dataset(400, 5, func(v []float64) float64 { return 2*v[0] + v[1]*v[1] })
	xTest, yTest := dataset(100, 6, func(v []float64) float64 { return 2*v[0] + v[1]*v[1] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var mean, varY float64
	for _, v := range yTest {
		mean += v
	}
	mean /= float64(len(yTest))
	for _, v := range yTest {
		varY += (v - mean) * (v - mean)
	}
	varY /= float64(len(yTest))
	if mse := m.MSE(xTest, yTest); mse > varY/2 {
		t.Fatalf("held-out MSE %v not better than mean predictor %v", mse, varY)
	}
}

func TestPredictBatch(t *testing.T) {
	x, y := dataset(50, 7, func(v []float64) float64 { return v[2] })
	m, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	batch := m.PredictBatch(x[:5])
	for i, row := range x[:5] {
		if batch[i] != m.Predict(row) {
			t.Fatal("batch and single predictions must agree")
		}
	}
}

// TestTrainDeterministic requires two trainings on the same data to build
// the same trees, bit for bit.
func TestTrainDeterministic(t *testing.T) {
	x, y := dataset(100, 9, func(v []float64) float64 { return v[0] + v[1] })
	m1, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(x, y, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffModels(m1, m2); d != "" {
		t.Fatalf("two trainings differ: %s", d)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, DefaultParams()); err == nil {
		t.Fatal("empty dataset must be rejected")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Fatal("ragged features must be rejected")
	}
	p := DefaultParams()
	p.Rounds = 0
	if _, err := Train([][]float64{{1}, {2}}, []float64{1, 2}, p); err == nil {
		t.Fatal("zero rounds must be rejected")
	}
}

func TestSingleFeatureStep(t *testing.T) {
	// A step function needs only one split.
	x := [][]float64{{1}, {2}, {3}, {10}, {11}, {12}}
	y := []float64{0, 0, 0, 5, 5, 5}
	p := DefaultParams()
	p.Rounds = 30
	p.Lambda = 0.1
	m, err := Train(x, y, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict([]float64{2.5})-0) > 0.5 {
		t.Fatalf("left side predicts %v", m.Predict([]float64{2.5}))
	}
	if math.Abs(m.Predict([]float64{11})-5) > 0.5 {
		t.Fatalf("right side predicts %v", m.Predict([]float64{11}))
	}
}

// TestTrainAllocsPerRoundIndependentOfRows pins the refit's steady state:
// the features are sorted once per call, so another round allocates only
// its tree's node arena — nothing per row and nothing per feature.
func TestTrainAllocsPerRoundIndependentOfRows(t *testing.T) {
	perRound := func(n int) float64 {
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			a, b := float64(i%2), float64(i/2%2)
			x[i] = []float64{a, b}
			y[i] = 4*a + b
		}
		p := DefaultParams()
		p.MaxDepth = 2
		allocs := func(rounds int) float64 {
			p.Rounds = rounds
			return testing.AllocsPerRun(5, func() {
				if _, err := Train(x, y, p); err != nil {
					t.Fatal(err)
				}
			})
		}
		return (allocs(21) - allocs(1)) / 20
	}
	small, large := perRound(64), perRound(4096)
	t.Logf("allocs per round after the first: %.2f at 64 rows, %.2f at 4096 rows", small, large)
	if large > small+0.5 || large > 8 {
		t.Fatalf("allocs per round grew to %.2f at 4096 rows (%.2f at 64): the refit allocates per node or per row again", large, small)
	}
}

// BenchmarkTrainRefits is one op = the refits of one tuner search: 600
// tuner-shaped rows (8 integer knobs of up to 8 levels), fitted at n = 32,
// 48, …, 592 with the XGBTuner's parameters.
func BenchmarkTrainRefits(b *testing.B) {
	x, y, p := trainCase{seed: 1, rows: 600, dim: 8, levels: 8, depth: 4, rounds: 30}.data()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 32; n < len(x); n += 16 {
			if _, err := Train(x[:n], y[:n], p); err != nil {
				b.Fatal(err)
			}
		}
	}
}
