package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBinsLosslessOnFewDistinct checks that with at most 256 distinct
// values per feature every distinct value occupies its own bin and the
// bin ranges collapse to single points.
func TestBinsLosslessOnFewDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(rng.Intn(10)), float64(rng.Intn(200)) / 7, 1.5}
	}
	cols := NewDesign(X).cols
	if len(cols[0].lo) != 10 || len(cols[2].lo) != 1 {
		t.Fatalf("bins = %d, %d, want feature 0 -> 10, feature 2 -> 1", len(cols[0].lo), len(cols[2].lo))
	}
	for f, c := range cols {
		for k := range c.lo {
			if c.lo[k] != c.hi[k] {
				t.Fatalf("feature %d bin %d not a point: [%v, %v]", f, k, c.lo[k], c.hi[k])
			}
		}
		for i, row := range X {
			k := int(c.binned[i])
			if c.lo[k] != row[f] || c.vals[i] != row[f] {
				t.Fatalf("feature %d row %d: value %v held as %v, binned to bin %d = %v", f, i, row[f], c.vals[i], k, c.lo[k])
			}
		}
	}
}

// TestBinsQuantisedOnManyDistinct checks the coarse branch: >256
// distinct values are spread over exactly 256 ordered, range-disjoint
// bins and every row lands in the bin covering its value.
func TestBinsQuantisedOnManyDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 3000
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
	}
	c := NewDesign(X).cols[0]
	if len(c.lo) != maxBins {
		t.Fatalf("bins = %d, want %d", len(c.lo), maxBins)
	}
	for k := 0; k < maxBins; k++ {
		if c.lo[k] > c.hi[k] {
			t.Fatalf("bin %d inverted: [%v, %v]", k, c.lo[k], c.hi[k])
		}
		if k > 0 && c.hi[k-1] >= c.lo[k] {
			t.Fatalf("bins %d and %d overlap", k-1, k)
		}
	}
	for i, row := range X {
		k := int(c.binned[i])
		if row[0] < c.lo[k] || row[0] > c.hi[k] {
			t.Fatalf("row %d: value %v outside bin %d range [%v, %v]", i, row[0], k, c.lo[k], c.hi[k])
		}
	}
}

// TestHistMatchesExactOnDiscreteFeatures trains the histogram and the
// legacy exact path on data where binning is lossless and requires
// identical tree structures: same splits, same thresholds, same leaves.
func TestHistMatchesExactOnDiscreteFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, dim := 400, 4
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(rng.Intn(50)) / 3
		}
		X[i] = row
		y[i] = row[0]*2 - row[1] + 0.3*row[2]*row[3] + 0.01*rng.NormFloat64()
	}
	cfg := Config{NumTrees: 20, MaxDepth: 4}
	legacyCfg := cfg
	legacyCfg.LegacyFitKernels = true
	exact, err := Train(X, y, legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.trees) != len(hist.trees) {
		t.Fatalf("tree count differs: %d vs %d", len(exact.trees), len(hist.trees))
	}
	for ti := range exact.trees {
		en, hn := exact.trees[ti].nodes, hist.trees[ti].nodes
		if len(en) != len(hn) {
			t.Fatalf("tree %d node count differs: %d vs %d", ti, len(en), len(hn))
		}
		for ni := range en {
			e, h := en[ni], hn[ni]
			if e.isLeaf != h.isLeaf || e.feature != h.feature ||
				e.left != h.left || e.right != h.right ||
				math.Float64bits(e.threshold) != math.Float64bits(h.threshold) {
				t.Fatalf("tree %d node %d differs: exact %+v hist %+v", ti, ni, e, h)
			}
			if math.Abs(e.leaf-h.leaf) > 1e-9 {
				t.Fatalf("tree %d node %d leaf differs: %v vs %v", ti, ni, e.leaf, h.leaf)
			}
		}
	}
}

// TestHistQualityOnContinuousFeatures checks that with genuinely
// continuous features (lossy 256-bin quantisation) the
// histogram path still fits the function about as well as the exact
// path.
func TestHistQualityOnContinuousFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 1200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		X[i] = row
		y[i] = math.Sin(row[0]) + row[1]*row[1] - row[2]
	}
	mse := func(r *Regressor) float64 {
		var s float64
		for i := range X {
			d := r.Predict(X[i]) - y[i]
			s += d * d
		}
		return s / float64(n)
	}
	cfg := Config{NumTrees: 40, MaxDepth: 4}
	legacyCfg := cfg
	legacyCfg.LegacyFitKernels = true
	exact, err := Train(X, y, legacyCfg)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := Train(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	me, mh := mse(exact), mse(hist)
	if mh > me*1.25+0.01 {
		t.Fatalf("hist mse %v much worse than exact %v", mh, me)
	}
}

func benchData(n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(9))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = row[0] * row[1]
	}
	return X, y
}

// BenchmarkHistogramSplit runs one booster at the shapes regress.Fit
// hands gbt in the paper grid — a 45-row windowed profile with the 14
// other correlation pairs or the 5 other means, a 900-row raw or delta
// profile with 5 other signals, all at the shipped 25 trees of depth 3 —
// next to the 2000 × 10 the search was first tuned on.
func BenchmarkHistogramSplit(b *testing.B) {
	for _, bc := range []struct {
		rows, dim int
		cfg       Config
	}{
		{45, 14, Config{NumTrees: 25, MaxDepth: 3}},
		{45, 5, Config{NumTrees: 25, MaxDepth: 3}},
		{900, 5, Config{NumTrees: 25, MaxDepth: 3}},
		{2000, 10, Config{NumTrees: 10, MaxDepth: 4}},
	} {
		b.Run(fmt.Sprintf("%dx%d", bc.rows, bc.dim), func(b *testing.B) {
			X, y := benchData(bc.rows, bc.dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(X, y, bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkExactSplit(b *testing.B) {
	X, y := benchData(2000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 10, MaxDepth: 4, LegacyFitKernels: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHistFitAllocBound bounds the allocations of a histogram fit: one
// per tree — the copy of its nodes out of the builder's scratch — plus a
// per-fit constant (the design's columns, the booster's buffers, a few
// node histograms). Rows, partitions and outputs live in buffers the
// booster owns; when every round sampled into fresh slices and grew
// its node slice by doubling this fit allocated 17 times per tree, and
// ~105 when each node built its children with append.
func TestHistFitAllocBound(t *testing.T) {
	X, y := benchData(800, 6)
	cfg := Config{NumTrees: 25, MaxDepth: 3}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Train(X, y, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per fit", allocs)
	if perTree := allocs / float64(cfg.NumTrees); perTree > 3 {
		t.Fatalf("histogram fit allocates %.1f times per tree (%v per fit), want <= 3", perTree, allocs)
	}
}
