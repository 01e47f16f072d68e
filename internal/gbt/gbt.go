// Package gbt implements gradient-boosted regression trees in the style
// of XGBoost (Chen & Guestrin, KDD 2016) for squared-error regression:
// second-order boosting with L2-regularised leaf weights, histogram
// split finding over features binned once per fit (hist.go; the exact
// greedy search over pre-sorted rows is kept behind
// Config.LegacyFitKernels as its oracle), a minimum-gain (γ) pruning
// criterion, depth limits and row/column subsampling. It is the model
// behind the paper's regression-based detector (Section 3.6).
package gbt

import (
	"errors"
	"math/rand"
	"sort"
)

// Config holds the boosting hyper-parameters. Zero fields take the
// defaults noted per field (mirroring common XGBoost settings scaled to
// this library's small feature spaces).
type Config struct {
	NumTrees       int     // boosting rounds (default 50)
	MaxDepth       int     // maximum tree depth (default 4)
	LearningRate   float64 // shrinkage η (default 0.3)
	Lambda         float64 // L2 regularisation on leaf weights (default 1)
	Gamma          float64 // minimum split gain (default 0)
	MinChildWeight float64 // minimum hessian (= sample count) per child (default 1)
	Subsample      float64 // row subsample fraction per tree (default 1)
	ColSample      float64 // feature subsample fraction per tree (default 1)
	Seed           int64   // RNG seed for subsampling (default 1)

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
	if c.LearningRate <= 0 {
		c.LearningRate = 0.3
	}
	if c.Lambda < 0 {
		c.Lambda = 0
	} else if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.MinChildWeight <= 0 {
		c.MinChildWeight = 1
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 1
	}
	if c.ColSample <= 0 || c.ColSample > 1 {
		c.ColSample = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
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
	return boost(y, dim, cfg, func(grad []float64, inBag, feats []bool, out []float64) tree {
		b := &treeBuilder{
			X: X, grad: grad, cfg: cfg,
			order: order, inBag: inBag, feats: feats,
		}
		tr := b.build()
		for i := range out {
			out[i] = tr.predict(X[i])
		}
		return tr
	})
}

// boost runs the boosting rounds both split searches share. grow builds
// one tree on the round's gradients, row bag and feature subset, and
// writes the tree's output for every row, in the bag or not, to out.
func boost(y []float64, dim int, cfg Config, grow func(grad []float64, inBag, feats []bool, out []float64) tree) *Regressor {
	n := len(y)
	r := &Regressor{cfg: cfg, dim: dim, trees: make([]tree, 0, cfg.NumTrees)}
	// Base score: mean target (the optimal constant under squared loss).
	var sum float64
	for _, v := range y {
		sum += v
	}
	r.base = sum / float64(n)

	var rng *rand.Rand // drawn from only when a round subsamples
	if cfg.Subsample < 1 || cfg.ColSample < 1 {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	buf := make([]float64, 3*n)
	pred, grad, out := buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	for i := range pred {
		pred[i] = r.base
	}
	inBag, feats := make([]bool, n), make([]bool, dim)
	for round := 0; round < cfg.NumTrees; round++ {
		for i := range grad {
			grad[i] = pred[i] - y[i] // squared loss gradient; hessian = 1
		}
		sampleRows(inBag, cfg.Subsample, rng)
		sampleFeatures(feats, cfg.ColSample, rng)
		r.trees = append(r.trees, grow(grad, inBag, feats, out))
		for i := range pred {
			pred[i] += cfg.LearningRate * out[i]
		}
	}
	return r
}

// Predict returns the ensemble prediction for x.
func (r *Regressor) Predict(x []float64) float64 {
	out := r.base
	for i := range r.trees {
		out += r.cfg.LearningRate * r.trees[i].predict(x)
	}
	return out
}

// NumFeatures returns the trained input dimensionality.
func (r *Regressor) NumFeatures() int { return r.dim }

// NumTrees returns the number of fitted trees.
func (r *Regressor) NumTrees() int { return len(r.trees) }

func sampleRows(inBag []bool, frac float64, rng *rand.Rand) {
	for i := range inBag {
		inBag[i] = frac >= 1 || rng.Float64() < frac
	}
}

func sampleFeatures(feats []bool, frac float64, rng *rand.Rand) {
	for f := range feats {
		feats[f] = frac >= 1
	}
	if frac >= 1 {
		return
	}
	k := int(float64(len(feats))*frac + 0.5)
	if k < 1 {
		k = 1
	}
	for _, f := range rng.Perm(len(feats))[:k] {
		feats[f] = true
	}
}

// treeBuilder grows one regression tree with exact greedy splits.
type treeBuilder struct {
	X     [][]float64
	grad  []float64
	cfg   Config
	order [][]int
	inBag []bool
	feats []bool
	tr    tree
}

func (b *treeBuilder) build() tree {
	rows := make([]int, 0, len(b.X))
	for i := range b.X {
		if b.inBag[i] {
			rows = append(rows, i)
		}
	}
	if len(rows) == 0 {
		// Degenerate bag: a single zero leaf.
		b.tr.nodes = append(b.tr.nodes, node{isLeaf: true})
		return b.tr
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
	leafWeight := -g / (h + b.cfg.Lambda)

	idx := len(b.tr.nodes)
	b.tr.nodes = append(b.tr.nodes, node{isLeaf: true, leaf: leafWeight})
	if depth >= b.cfg.MaxDepth || h < 2*b.cfg.MinChildWeight {
		return idx
	}
	feat, thr, gain := b.bestSplit(rows, g, h)
	if feat < 0 || gain <= b.cfg.Gamma {
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

// bestSplit scans every allowed feature for the gain-maximising split.
func (b *treeBuilder) bestSplit(rows []int, gTot, hTot float64) (feature int, threshold, gain float64) {
	feature = -1
	parent := gTot * gTot / (hTot + b.cfg.Lambda)
	member := map[int]bool{}
	for _, i := range rows {
		member[i] = true
	}
	for f := range b.feats {
		if !b.feats[f] {
			continue
		}
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
				if hl >= b.cfg.MinChildWeight && hr >= b.cfg.MinChildWeight {
					gn := 0.5 * (gl*gl/(hl+b.cfg.Lambda) + gr*gr/(hr+b.cfg.Lambda) - parent)
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
