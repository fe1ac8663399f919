package xgboost

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// trainRef is the straightforward trainer Train must match bit for bit:
// every node re-gathers its (value, target) pairs per feature in row order
// and sorts them with sort.SliceStable, partitions into fresh slices, and
// predictions are updated by walking each new tree. Train's presorted
// orders, column copy and leaf bookkeeping are an optimisation of exactly
// this arithmetic.
func trainRef(x [][]float64, y []float64, p Params) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("xgboost: need matching non-empty x (%d) and y (%d)", len(x), len(y))
	}
	dim := len(x[0])
	for i, row := range x {
		if len(row) != dim {
			return nil, fmt.Errorf("xgboost: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	if p.Rounds <= 0 || p.MaxDepth <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgboost: invalid params %+v", p)
	}
	if p.MinSamples < 2 {
		p.MinSamples = 2
	}

	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	m := &Model{params: p, base: base}
	residual := make([]float64, len(y))
	pred := make([]float64, len(y))
	for i := range pred {
		pred[i] = base
	}
	rows := make([]int, len(y))
	for i := range rows {
		rows[i] = i
	}
	for round := 0; round < p.Rounds; round++ {
		for i := range residual {
			residual[i] = y[i] - pred[i]
		}
		t := buildTreeRef(x, residual, rows, p)
		m.trees = append(m.trees, t)
		for i := range pred {
			pred[i] += p.LearningRate * t.predict(x[i])
		}
	}
	return m, nil
}

func buildTreeRef(x [][]float64, target []float64, rows []int, p Params) tree {
	t := tree{}
	var grow func(rows []int, depth int) int
	grow = func(rows []int, depth int) int {
		idx := len(t.nodes)
		t.nodes = append(t.nodes, node{feature: -1, left: -1, right: -1})
		var sum float64
		for _, r := range rows {
			sum += target[r]
		}
		t.nodes[idx].value = sum / (float64(len(rows)) + p.Lambda)
		if depth >= p.MaxDepth || len(rows) < p.MinSamples {
			return idx
		}
		feature, threshold, ok := bestSplitRef(x, target, rows, p)
		if !ok {
			return idx
		}
		var left, right []int
		for _, r := range rows {
			if x[r][feature] <= threshold {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			return idx
		}
		t.nodes[idx].feature = feature
		t.nodes[idx].threshold = threshold
		t.nodes[idx].left = grow(left, depth+1)
		t.nodes[idx].right = grow(right, depth+1)
		return idx
	}
	grow(rows, 0)
	return t
}

func bestSplitRef(x [][]float64, target []float64, rows []int, p Params) (int, float64, bool) {
	dim := len(x[0])
	var total float64
	for _, r := range rows {
		total += target[r]
	}
	n := float64(len(rows))
	parentScore := total * total / (n + p.Lambda)

	bestGain := 1e-12
	bestFeature, bestThreshold, found := -1, 0.0, false

	type fv struct{ v, t float64 }
	vals := make([]fv, 0, len(rows))
	for f := 0; f < dim; f++ {
		vals = vals[:0]
		for _, r := range rows {
			vals = append(vals, fv{x[r][f], target[r]})
		}
		sort.SliceStable(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		var leftSum float64
		for i := 0; i < len(vals)-1; i++ {
			leftSum += vals[i].t
			if vals[i].v == vals[i+1].v {
				continue // cannot split between equal values
			}
			nl := float64(i + 1)
			nr := n - nl
			rightSum := total - leftSum
			gain := leftSum*leftSum/(nl+p.Lambda) + rightSum*rightSum/(nr+p.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (vals[i].v + vals[i+1].v) / 2
				found = true
			}
		}
	}
	return bestFeature, bestThreshold, found
}

// trainCase describes one random training problem shaped like the tuner's:
// integer knob features with few levels (so sort keys tie heavily), some
// columns constant, and integer or fractional targets.
type trainCase struct {
	seed      int64
	rows, dim int
	levels    int // per-feature levels are drawn from 1..levels
	depth     int // MaxDepth
	rounds    int // Rounds
}

func (c trainCase) String() string {
	return fmt.Sprintf("seed=%d rows=%d dim=%d levels=%d depth=%d rounds=%d",
		c.seed, c.rows, c.dim, c.levels, c.depth, c.rounds)
}

func (c trainCase) data() ([][]float64, []float64, Params) {
	rng := rand.New(rand.NewSource(c.seed))
	levels := make([]int, c.dim)
	weights := make([]float64, c.dim)
	for f := range levels {
		levels[f] = 1 + rng.Intn(c.levels) // one level: a constant column
		weights[f] = float64(rng.Intn(7) - 3)
	}
	mode := rng.Intn(3)
	x := make([][]float64, c.rows)
	y := make([]float64, c.rows)
	for i := range x {
		row := make([]float64, c.dim)
		var lin float64
		for f := range row {
			row[f] = float64(1 + rng.Intn(levels[f]))
			lin += weights[f] * row[f]
		}
		x[i] = row
		switch mode {
		case 0: // few distinct integer targets
			y[i] = float64(rng.Intn(4))
		case 1: // integer targets following the features, like cycle counts
			y[i] = lin*lin + float64(rng.Intn(3))
		default: // fractional targets, like psums plus a scaled step count
			y[i] = lin + float64(rng.Intn(5))/(2*7)
		}
	}
	p := DefaultParams()
	p.MaxDepth = c.depth
	p.Rounds = c.rounds
	return x, y, p
}

func randomTrainCase(rng *rand.Rand) trainCase {
	c := trainCase{
		seed:   rng.Int63(),
		rows:   1 + rng.Intn(600),
		dim:    1 + rng.Intn(8),
		levels: 1 + rng.Intn(12),
		depth:  1 + rng.Intn(6),
		rounds: 1 + rng.Intn(30),
	}
	if rng.Intn(2) == 0 {
		c.rows = 1 + rng.Intn(20) // small nodes: where tie order decides splits
	}
	return c
}

// diffModels describes the first difference between two models, or returns
// "" when every tree node matches bit for bit.
func diffModels(got, want *Model) string {
	if math.Float64bits(got.base) != math.Float64bits(want.base) {
		return fmt.Sprintf("base %v, want %v", got.base, want.base)
	}
	if len(got.trees) != len(want.trees) {
		return fmt.Sprintf("%d trees, want %d", len(got.trees), len(want.trees))
	}
	for ti := range got.trees {
		g, w := got.trees[ti].nodes, want.trees[ti].nodes
		if len(g) != len(w) {
			return fmt.Sprintf("tree %d: %d nodes, want %d", ti, len(g), len(w))
		}
		for ni := range g {
			a, b := g[ni], w[ni]
			if a.feature != b.feature || a.left != b.left || a.right != b.right ||
				math.Float64bits(a.threshold) != math.Float64bits(b.threshold) ||
				math.Float64bits(a.value) != math.Float64bits(b.value) {
				return fmt.Sprintf("tree %d node %d: %+v, want %+v", ti, ni, a, b)
			}
		}
	}
	return ""
}

func checkTrainMatchesReference(t *testing.T, c trainCase) {
	t.Helper()
	x, y, p := c.data()
	got, err := Train(x, y, p)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	want, err := trainRef(x, y, p)
	if err != nil {
		t.Fatalf("%v: reference: %v", c, err)
	}
	if d := diffModels(got, want); d != "" {
		t.Fatalf("%v: %s", c, d)
	}
}

// TestTrainMatchesReference requires Train to build, node for node, the
// trees trainRef builds — same features, children, and threshold and leaf
// value bits — on random tie-heavy datasets. The named cases fold equal
// feature values in an order other than (value, row) under an unstable
// sort with a "less"-only comparator.
func TestTrainMatchesReference(t *testing.T) {
	for _, c := range []trainCase{
		{seed: 8234100758338098747, rows: 40, dim: 6, levels: 9, depth: 5, rounds: 21},
		{seed: 2241402617921697564, rows: 388, dim: 3, levels: 4, depth: 5, rounds: 27},
	} {
		checkTrainMatchesReference(t, c)
	}
	n := 400
	if testing.Short() {
		n = 60
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < n; i++ {
		checkTrainMatchesReference(t, randomTrainCase(rng))
	}
}

func FuzzTrainMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(3), uint8(4), uint8(4), uint8(30))
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, dim, levels, depth, rounds uint8) {
		c := trainCase{
			seed:   seed,
			rows:   1 + int(rows)%600,
			dim:    1 + int(dim)%8,
			levels: 1 + int(levels)%12,
			depth:  1 + int(depth)%6,
			rounds: 1 + int(rounds)%30,
		}
		checkTrainMatchesReference(t, c)
	})
}
