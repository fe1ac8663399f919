// Package xgboost implements gradient-boosted regression trees from
// scratch: the learned cost model behind Bifrost's XGBTuner, standing in
// for the XGBoost library (Chen & Guestrin, KDD 2016) that AutoTVM uses.
// The implementation is a classic exact-greedy GBT: squared-error loss,
// depth-limited regression trees fit to residuals, shrinkage, and optional
// per-tree row subsampling for variance reduction.
//
// Train is bit-identical to the plain algorithm (trainRef in the tests):
// every node's split scan folds its targets in the order a pdqsort of the
// node's feature values leaves them, equal values included, and the low
// bits of the gains — hence the chosen splits — depend on that order. The
// order is a function of the sequence of keys sorted alone, and a node's
// rows are always in ascending row order (the root holds every row or a
// sorted subsample, and partitioning is stable), so a node's row set fixes
// it. Train therefore sorts each distinct (row set, feature) once per call
// and reuses the order wherever that row set recurs: the root in every
// round, and most small nodes. The memo lives for one Train call and holds
// at most Rounds × MaxDepth × rows × (features + 1) int32s. Presorting once
// and partitioning stably, as XGBoost's column blocks do, or a stable sort,
// would reorder equal values and change the trees, so neither is used.
package xgboost

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Params configures training.
type Params struct {
	Rounds       int     // number of boosting rounds (trees)
	LearningRate float64 // shrinkage applied to every tree's output
	MaxDepth     int     // maximum tree depth
	MinSamples   int     // minimum samples to attempt a split
	Lambda       float64 // L2 regularisation on leaf values
	SubsampleRow float64 // fraction of rows sampled per tree (0 or 1 = all)
	Seed         int64
}

// DefaultParams mirrors the conservative settings AutoTVM uses for its
// transfer cost model.
func DefaultParams() Params {
	return Params{Rounds: 50, LearningRate: 0.2, MaxDepth: 4, MinSamples: 2, Lambda: 1.0, SubsampleRow: 1.0}
}

// node is one tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	value       float64
	left, right int // child indices; -1 for leaves
}

// tree is a regression tree stored as a flat node arena.
type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	n := &t.nodes[0]
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n.value
}

// Model is a trained gradient-boosted ensemble.
type Model struct {
	params Params
	base   float64
	trees  []tree
}

// Train fits a model to the rows of x (features) and targets y.
func Train(x [][]float64, y []float64, p Params) (*Model, error) {
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("xgboost: need matching non-empty x (%d) and y (%d)", len(x), len(y))
	}
	if len(x) > math.MaxInt32 {
		return nil, fmt.Errorf("xgboost: %d rows exceed the int32 row index", len(x))
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
	// Only row subsampling draws from the generator; it is seeded on first
	// use, so the default full-row fit never pays for a source.
	var rng *rand.Rand

	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	n := len(y)
	tr := &trainer{
		p:       p,
		cols:    make([][]float64, dim),
		target:  make([]float64, n),
		orders:  make(map[string][][]int32),
		scratch: make([]int32, 0, n),
		leaf:    make([]int32, n),
	}
	flat := make([]float64, dim*n)
	for f := range tr.cols {
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for r, row := range x {
			col[r] = row[f]
		}
		tr.cols[f] = col
	}

	m := &Model{params: p, base: base}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	work := make([]int32, n) // the current tree's rows, partitioned in place
	for round := 0; round < p.Rounds; round++ {
		for i := range tr.target {
			tr.target[i] = y[i] - pred[i]
		}
		rows := work
		if p.SubsampleRow > 0 && p.SubsampleRow < 1 {
			k := int(math.Ceil(p.SubsampleRow * float64(n)))
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			perm := rng.Perm(n)[:k]
			sort.Ints(perm)
			rows = work[:k]
			for i, r := range perm {
				rows[i] = int32(r)
			}
		} else {
			for i := range rows {
				rows[i] = int32(i)
			}
		}
		for i := range tr.leaf {
			tr.leaf[i] = -1
		}
		t := tree{}
		tr.grow(&t, rows, 0)
		m.trees = append(m.trees, t)
		for i := range pred {
			var v float64
			if l := tr.leaf[i]; l >= 0 {
				v = t.nodes[l].value
			} else {
				v = t.predict(x[i]) // outside this tree's subsample
			}
			pred[i] += p.LearningRate * v
		}
	}
	return m, nil
}

// trainer is one Train call's working state.
type trainer struct {
	p      Params
	cols   [][]float64 // cols[f][r] = x[r][f]
	target []float64   // the current round's residuals
	// orders maps a row set, its rows as little-endian uint32s, to every
	// feature's sorted row order (nil for a feature constant on the set).
	orders  map[string][][]int32
	key     []byte  // the row set being looked up, encoded
	scratch []int32 // a partition's right-hand rows
	leaf    []int32 // per row: the current tree's leaf it landed in, or -1
}

// grow appends the subtree fitted to rows (depth levels down) to t and
// returns its root's index. It partitions rows in place.
func (tr *trainer) grow(t *tree, rows []int32, depth int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, left: -1, right: -1})
	var sum float64
	for _, r := range rows {
		sum += tr.target[r]
	}
	// Regularised leaf value.
	t.nodes[idx].value = sum / (float64(len(rows)) + tr.p.Lambda)
	if depth < tr.p.MaxDepth && len(rows) >= tr.p.MinSamples {
		if f, threshold, ok := tr.bestSplit(rows, sum); ok {
			if nl := tr.partition(rows, tr.cols[f], threshold); nl > 0 && nl < len(rows) {
				t.nodes[idx].feature = f
				t.nodes[idx].threshold = threshold
				left := tr.grow(t, rows[:nl], depth+1)
				right := tr.grow(t, rows[nl:], depth+1)
				t.nodes[idx].left, t.nodes[idx].right = left, right
				return idx
			}
		}
	}
	for _, r := range rows {
		tr.leaf[r] = int32(idx)
	}
	return idx
}

// bestSplit scans every feature for the exact split minimising the
// regularised squared-error objective (maximum variance-reduction gain).
// total is the rows' target sum, accumulated in row order.
func (tr *trainer) bestSplit(rows []int32, total float64) (int, float64, bool) {
	n := float64(len(rows))
	parentScore := total * total / (n + tr.p.Lambda)

	bestGain := 1e-12
	bestFeature, bestThreshold, found := -1, 0.0, false
	for f, order := range tr.sortedOrders(rows) {
		col := tr.cols[f]
		var leftSum float64
		for i := 0; i < len(order)-1; i++ {
			r, next := order[i], order[i+1]
			leftSum += tr.target[r]
			if col[r] == col[next] {
				continue // cannot split between equal values
			}
			nl := float64(i + 1)
			nr := n - nl
			rightSum := total - leftSum
			gain := leftSum*leftSum/(nl+tr.p.Lambda) + rightSum*rightSum/(nr+tr.p.Lambda) - parentScore
			if gain > bestGain {
				bestGain = gain
				bestFeature = f
				bestThreshold = (col[r] + col[next]) / 2
				found = true
			}
		}
	}
	return bestFeature, bestThreshold, found
}

// sortedOrders returns rows sorted by each feature's value, nil for a
// feature constant on rows (it offers no split), memoised by row set.
func (tr *trainer) sortedOrders(rows []int32) [][]int32 {
	tr.key = tr.key[:0]
	for _, r := range rows {
		tr.key = binary.LittleEndian.AppendUint32(tr.key, uint32(r))
	}
	if orders, ok := tr.orders[string(tr.key)]; ok {
		return orders
	}
	orders := make([][]int32, len(tr.cols))
	sorted := 0
	for f, col := range tr.cols {
		if !constantOn(col, rows) {
			orders[f] = rows // sorted below
			sorted++
		}
	}
	buf := make([]int32, sorted*len(rows))
	for f, col := range tr.cols {
		if orders[f] == nil {
			continue
		}
		order := buf[:len(rows):len(rows)]
		buf = buf[len(rows):]
		copy(order, rows)
		// sort.Slice and slices.SortFunc are instances of one pdqsort
		// template: with a cmp that reports only "less" they permute equal
		// keys identically, and the split scan's fold order is that
		// permutation.
		slices.SortFunc(order, func(a, b int32) int {
			if col[a] < col[b] {
				return -1
			}
			return 0
		})
		orders[f] = order
	}
	tr.orders[string(tr.key)] = orders
	return orders
}

func constantOn(col []float64, rows []int32) bool {
	v := col[rows[0]]
	for _, r := range rows[1:] {
		if col[r] != v {
			return false
		}
	}
	return true
}

// partition stably moves the rows with col[r] <= threshold to the front
// of rows and returns how many there are.
func (tr *trainer) partition(rows []int32, col []float64, threshold float64) int {
	right := tr.scratch[:0]
	nl := 0
	for _, r := range rows {
		if col[r] <= threshold {
			rows[nl] = r
			nl++
		} else {
			right = append(right, r)
		}
	}
	copy(rows[nl:], right)
	return nl
}

// Predict returns the model's estimate for one feature vector.
func (m *Model) Predict(x []float64) float64 {
	out := m.base
	for i := range m.trees {
		out += m.params.LearningRate * m.trees[i].predict(x)
	}
	return out
}

// PredictBatch returns estimates for many feature vectors.
func (m *Model) PredictBatch(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// MSE returns the mean squared error of the model on a dataset.
func (m *Model) MSE(x [][]float64, y []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for i, row := range x {
		d := m.Predict(row) - y[i]
		sum += d * d
	}
	return sum / float64(len(x))
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.trees) }
