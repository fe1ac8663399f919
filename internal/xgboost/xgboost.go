// Package xgboost implements gradient-boosted regression trees from
// scratch: the learned cost model behind Bifrost's XGBTuner, standing in
// for the XGBoost library (Chen & Guestrin, KDD 2016) that AutoTVM uses.
// It is classic exact-greedy GBT: squared-error loss, depth-limited
// regression trees fit to residuals, and shrinkage. Train sorts each
// feature once per call, by (value, row), and splits a node by stably
// partitioning every feature's order, as XGBoost's column blocks do.
package xgboost

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Params configures training.
type Params struct {
	Rounds       int     // number of boosting rounds (trees)
	LearningRate float64 // shrinkage applied to every tree's output
	MaxDepth     int     // maximum tree depth
	MinSamples   int     // minimum samples to attempt a split
	Lambda       float64 // L2 regularisation on leaf values
}

// DefaultParams mirrors the conservative settings AutoTVM uses for its
// transfer cost model.
func DefaultParams() Params {
	return Params{Rounds: 50, LearningRate: 0.2, MaxDepth: 4, MinSamples: 2, Lambda: 1.0}
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

	var base float64
	for _, v := range y {
		base += v
	}
	base /= float64(len(y))

	n := len(y)
	tr := &trainer{
		p:       p,
		cols:    make([][]float64, dim),
		orders:  make([][]int32, dim),
		target:  make([]float64, n),
		rows:    make([]int32, n),
		goLeft:  make([]uint8, n),
		scratch: make([]int32, n),
		leaf:    make([]int32, n),
	}
	flat := make([]float64, dim*n)
	sorted := make([]int32, dim*n) // each feature's order over every row
	work := make([]int32, dim*n)   // the orders the current tree partitions
	for f := range tr.cols {
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for r, row := range x {
			col[r] = row[f]
		}
		tr.cols[f] = col
		order := sorted[f*n : (f+1)*n]
		for r := range order {
			order[r] = int32(r)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		tr.orders[f] = work[f*n : (f+1)*n : (f+1)*n]
	}

	m := &Model{params: p, base: base}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	for round := 0; round < p.Rounds; round++ {
		for i := range tr.target {
			tr.target[i] = y[i] - pred[i]
		}
		copy(work, sorted)
		for i := range tr.rows {
			tr.rows[i] = int32(i)
		}
		t := tree{}
		tr.grow(&t, 0, n, 0)
		m.trees = append(m.trees, t)
		for i := range pred {
			pred[i] += p.LearningRate * t.nodes[tr.leaf[i]].value
		}
	}
	return m, nil
}

// trainer is one Train call's working state. A node is a range [lo, hi)
// of rows and of every feature's order: rows[lo:hi] holds the node's rows
// ascending, and orders[f][lo:hi] the same rows sorted by (value, row) —
// unless f is constant on an ancestor, whose range split leaves f's order
// alone: then its range holds rows that all share that one value.
type trainer struct {
	p       Params
	cols    [][]float64 // cols[f][r] = x[r][f]
	orders  [][]int32   // per feature, the current tree's partitioned order
	target  []float64   // the current round's residuals
	rows    []int32     // the current tree's rows, partitioned in row order
	goLeft  []uint8     // per row: 1 if the split being applied sends it left
	scratch []int32     // a partition's right-hand rows
	leaf    []int32     // per row: the current tree's leaf it landed in
}

// grow appends the subtree fitted to the node [lo, hi) (depth levels down)
// to t and returns its root's index. It partitions the node's ranges in
// place.
func (tr *trainer) grow(t *tree, lo, hi, depth int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: -1, left: -1, right: -1})
	var sum float64
	for _, r := range tr.rows[lo:hi] {
		sum += tr.target[r]
	}
	// Regularised leaf value.
	t.nodes[idx].value = sum / (float64(hi-lo) + tr.p.Lambda)
	if depth < tr.p.MaxDepth && hi-lo >= tr.p.MinSamples {
		if f, threshold, ok := tr.bestSplit(lo, hi, sum); ok {
			if mid := tr.split(lo, hi, f, threshold); mid > lo && mid < hi {
				t.nodes[idx].feature = f
				t.nodes[idx].threshold = threshold
				left := tr.grow(t, lo, mid, depth+1)
				right := tr.grow(t, mid, hi, depth+1)
				t.nodes[idx].left, t.nodes[idx].right = left, right
				return idx
			}
		}
	}
	for _, r := range tr.rows[lo:hi] {
		tr.leaf[r] = int32(idx)
	}
	return idx
}

// bestSplit scans every feature for the exact split minimising the
// regularised squared-error objective (maximum variance-reduction gain).
// total is the node's target sum, accumulated in row order.
func (tr *trainer) bestSplit(lo, hi int, total float64) (int, float64, bool) {
	n := float64(hi - lo)
	parentScore := total * total / (n + tr.p.Lambda)

	bestGain := 1e-12
	bestFeature, bestThreshold, found := -1, 0.0, false
	for f, col := range tr.cols {
		order := tr.orders[f][lo:hi]
		if col[order[0]] == col[order[len(order)-1]] {
			continue // constant on the node: no split
		}
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

// split stably partitions the node's rows and feature orders so that the
// rows with cols[f][r] <= threshold come first, and returns where the
// right child's range begins. f's own order is already split, and a
// feature constant on the node stays constant on every range below it.
func (tr *trainer) split(lo, hi, f int, threshold float64) int {
	col := tr.cols[f]
	for _, r := range tr.rows[lo:hi] {
		var g uint8
		if col[r] <= threshold {
			g = 1
		}
		tr.goLeft[r] = g
	}
	mid := tr.partition(tr.rows[lo:hi]) + lo
	for g, order := range tr.orders {
		order := order[lo:hi]
		if g == f || tr.cols[g][order[0]] == tr.cols[g][order[len(order)-1]] {
			continue
		}
		tr.partition(order)
	}
	return mid
}

// partition stably moves the rows going left to the front of rows and
// returns how many there are. It writes every row to both sides and
// advances one, so a random split costs no mispredicted branches.
func (tr *trainer) partition(rows []int32) int {
	right := tr.scratch[:len(rows)]
	nl, nr := 0, 0
	for _, r := range rows {
		g := int(tr.goLeft[r])
		rows[nl] = r
		right[nr] = r
		nl += g
		nr += 1 - g
	}
	copy(rows[nl:], right[:nr])
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
