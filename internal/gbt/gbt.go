// Package gbt implements gradient-boosted regression trees in the style
// of XGBoost (Chen & Guestrin, KDD 2016) for squared-error regression:
// second-order boosting with L2-regularised leaf weights, histogram
// split finding over features binned once per fit (hist.go; the exact
// greedy search over pre-sorted rows is kept behind
// Config.LegacyFitKernels as its oracle), a minimum-gain (γ) pruning
// criterion and depth limits. Every tree is grown on all rows and all
// features. It is the model behind the paper's regression-based detector
// (Section 3.6).
package gbt

import (
	"errors"
	"sort"
)

// The boosting constants: XGBoost's defaults, the one setting the paper
// scores with.
const (
	learningRate   = 0.3 // shrinkage η
	lambda         = 1.0 // L2 regularisation on leaf weights
	gamma          = 0.0 // minimum split gain
	minChildWeight = 1.0 // minimum hessian (= sample count) per child
)

// Config holds the boosting hyper-parameters a caller sizes; the rest
// are the constants above. Zero fields take the defaults noted per
// field.
type Config struct {
	NumTrees int // boosting rounds (default 50)
	MaxDepth int // maximum tree depth (default 4)

	// LegacyFitKernels restores the exact greedy split search over
	// pre-sorted row orderings (the pre-optimisation path). The default
	// is the pre-binned histogram search of hist.go, which proposes the
	// same midpoint thresholds whenever a feature has at most 256
	// distinct values. Predictions do not depend on this flag's value at
	// predict time; it only selects the training algorithm.
	LegacyFitKernels bool
}

func (c *Config) defaults() {
	if c.NumTrees <= 0 {
		c.NumTrees = 50
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 4
	}
}

// ErrNoData is returned when Train receives no rows.
var ErrNoData = errors.New("gbt: no training data")

// ErrDimension is returned on ragged inputs or mismatched X/y lengths.
var ErrDimension = errors.New("gbt: dimension mismatch")

// node is one tree node in the flat arena.
type node struct {
	feature   int
	threshold float64
	left      int
	right     int
	leaf      float64
	isLeaf    bool
}

type tree struct{ nodes []node }

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.isLeaf {
			return n.leaf
		}
		if x[n.feature] < n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Regressor is a trained boosted ensemble.
type Regressor struct {
	cfg   Config
	base  float64
	trees []tree
	dim   int
}

// Train fits a boosted regression ensemble on X (rows = samples) and
// targets y. It is the single-target wrapper over a Design built from X;
// callers fitting several targets off one matrix build the Design once
// (regress.Fit).
func Train(X [][]float64, y []float64, cfg Config) (*Regressor, error) {
	cfg.defaults()
	if len(X) == 0 {
		return nil, ErrNoData
	}
	if len(X) != len(y) {
		return nil, ErrDimension
	}
	dim := len(X[0])
	for _, row := range X {
		if len(row) != dim {
			return nil, ErrDimension
		}
	}
	if cfg.LegacyFitKernels {
		return trainExact(X, y, cfg), nil
	}
	return train(NewDesign(X).cols, y, cfg), nil
}

// trainExact boosts with the exact greedy split search over feature
// orderings pre-sorted once and shared across all rounds.
func trainExact(X [][]float64, y []float64, cfg Config) *Regressor {
	dim := len(X[0])
	order := make([][]int, dim)
	for f := 0; f < dim; f++ {
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return X[idx[a]][f] < X[idx[b]][f] })
		order[f] = idx
	}
	return boost(y, dim, cfg, func(grad, out []float64) tree {
		b := &treeBuilder{X: X, grad: grad, cfg: cfg, order: order}
		tr := b.build()
		for i := range out {
			out[i] = tr.predict(X[i])
		}
		return tr
	})
}

// boost runs the boosting rounds both split searches share. grow builds
// one tree on the round's gradients and writes the tree's output for
// every row to out.
func boost(y []float64, dim int, cfg Config, grow func(grad, out []float64) tree) *Regressor {
	n := len(y)
	r := &Regressor{cfg: cfg, dim: dim, trees: make([]tree, 0, cfg.NumTrees)}
	// Base score: mean target (the optimal constant under squared loss).
	var sum float64
	for _, v := range y {
		sum += v
	}
	r.base = sum / float64(n)

	buf := make([]float64, 3*n)
	pred, grad, out := buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	for i := range pred {
		pred[i] = r.base
	}
	for round := 0; round < cfg.NumTrees; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient; hessian = 1
		}
		r.trees = append(r.trees, grow(grad, out))
		for i := range pred {
			pred[i] += learningRate * out[i]
		}
	}
	return r
}

// Predict returns the ensemble prediction for x.
func (r *Regressor) Predict(x []float64) float64 {
	out := r.base
	for i := range r.trees {
		out += learningRate * r.trees[i].predict(x)
	}
	return out
}

// NumFeatures returns the trained input dimensionality.
func (r *Regressor) NumFeatures() int { return r.dim }

// NumTrees returns the number of fitted trees.
func (r *Regressor) NumTrees() int { return len(r.trees) }

// treeBuilder grows one regression tree with exact greedy splits.
type treeBuilder struct {
	X     [][]float64
	grad  []float64
	cfg   Config
	order [][]int
	tr    tree
}

func (b *treeBuilder) build() tree {
	rows := make([]int, len(b.X))
	for i := range rows {
		rows[i] = i
	}
	b.grow(rows, 0)
	return b.tr
}

// grow adds the subtree over rows and returns its node index.
func (b *treeBuilder) grow(rows []int, depth int) int {
	var g float64
	h := float64(len(rows))
	for _, i := range rows {
		g += b.grad[i]
	}
	leafWeight := -g / (h + lambda)

	idx := len(b.tr.nodes)
	b.tr.nodes = append(b.tr.nodes, node{isLeaf: true, leaf: leafWeight})
	if depth >= b.cfg.MaxDepth || h < 2*minChildWeight {
		return idx
	}
	feat, thr, gain := b.bestSplit(rows, g, h)
	if feat < 0 || gain <= gamma {
		return idx
	}
	var left, right []int
	for _, i := range rows {
		if b.X[i][feat] < thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return idx
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.tr.nodes[idx] = node{feature: feat, threshold: thr, left: l, right: r}
	return idx
}

// bestSplit scans every feature for the gain-maximising split.
func (b *treeBuilder) bestSplit(rows []int, gTot, hTot float64) (feature int, threshold, gain float64) {
	feature = -1
	parent := gTot * gTot / (hTot + lambda)
	member := map[int]bool{}
	for _, i := range rows {
		member[i] = true
	}
	for f := range b.order {
		var gl, hl float64
		var prev float64
		started := false
		for _, i := range b.order[f] {
			if !member[i] {
				continue
			}
			v := b.X[i][f]
			if started && v > prev {
				gr := gTot - gl
				hr := hTot - hl
				if hl >= minChildWeight && hr >= minChildWeight {
					gn := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent)
					if gn > gain {
						gain = gn
						feature = f
						threshold = (prev + v) / 2
					}
				}
			}
			gl += b.grad[i]
			hl++
			prev = v
			started = true
		}
	}
	return feature, threshold, gain
}
