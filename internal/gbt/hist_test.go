package gbt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/fitpool"
)

// TestBinsLosslessOnFewDistinct checks that with at most 256 distinct
// values per feature every distinct value occupies its own bin and the
// bin ranges collapse to single points.
func TestBinsLosslessOnFewDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, dim := 500, 3
	X := make([][]float64, n)
	for i := range X {
		X[i] = []float64{float64(rng.Intn(10)), float64(rng.Intn(200)) / 7, 1.5}
	}
	b := buildBins(X, dim)
	if b.nbins[0] != 10 || b.nbins[2] != 1 {
		t.Fatalf("nbins = %v, want feature 0 -> 10, feature 2 -> 1", b.nbins)
	}
	for f := 0; f < dim; f++ {
		for k := 0; k < b.nbins[f]; k++ {
			if b.lo[f][k] != b.hi[f][k] {
				t.Fatalf("feature %d bin %d not a point: [%v, %v]", f, k, b.lo[f][k], b.hi[f][k])
			}
		}
		for i, row := range X {
			k := int(b.binned[f][i])
			if b.lo[f][k] != row[f] {
				t.Fatalf("feature %d row %d: value %v binned to bin %d = %v", f, i, row[f], k, b.lo[f][k])
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
	b := buildBins(X, 1)
	if b.nbins[0] != maxBins {
		t.Fatalf("nbins = %d, want %d", b.nbins[0], maxBins)
	}
	for k := 0; k < maxBins; k++ {
		if b.lo[0][k] > b.hi[0][k] {
			t.Fatalf("bin %d inverted: [%v, %v]", k, b.lo[0][k], b.hi[0][k])
		}
		if k > 0 && b.hi[0][k-1] >= b.lo[0][k] {
			t.Fatalf("bins %d and %d overlap", k-1, k)
		}
	}
	for i, row := range X {
		k := int(b.binned[0][i])
		if row[0] < b.lo[0][k] || row[0] > b.hi[0][k] {
			t.Fatalf("row %d: value %v outside bin %d range [%v, %v]", i, row[0], k, b.lo[0][k], b.hi[0][k])
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
	cfg := Config{NumTrees: 20, MaxDepth: 4, Seed: 7}
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
// continuous features (lossy 256-bin quantisation, plus subsampling) the
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
	cfg := Config{NumTrees: 40, MaxDepth: 4, Subsample: 0.8, ColSample: 0.9, Seed: 5}
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

// TestHistDeterministicAcrossWorkers checks the parallel feature scan
// contract: the trained ensemble is bitwise independent of the fitpool
// worker count.
func TestHistDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n, dim := 600, 5
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		X[i] = row
		y[i] = row[0] - row[3]
	}
	train := func(workers int) *Regressor {
		defer fitpool.SetWorkers(fitpool.Workers())
		fitpool.SetWorkers(workers)
		r, err := Train(X, y, Config{NumTrees: 15, MaxDepth: 4, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := train(1), train(6)
	for ti := range a.trees {
		an, bn := a.trees[ti].nodes, b.trees[ti].nodes
		if len(an) != len(bn) {
			t.Fatalf("tree %d node count depends on workers", ti)
		}
		for ni := range an {
			if an[ni] != bn[ni] {
				t.Fatalf("tree %d node %d depends on workers: %+v vs %+v", ti, ni, an[ni], bn[ni])
			}
		}
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

func BenchmarkHistogramSplit(b *testing.B) {
	X, y := benchData(2000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 10, MaxDepth: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSplit(b *testing.B) {
	X, y := benchData(2000, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(X, y, Config{NumTrees: 10, MaxDepth: 4, Seed: 1, LegacyFitKernels: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHistFitAllocBound bounds the allocations of a histogram fit. The
// grower partitions each node's rows in place with one builder-owned
// scratch; when it built the two children with append from nil at every
// node this fit allocated ~105 times per tree. What is left (~17) is per
// round — row and feature sampling, the tree's node slice — and none of
// it per row. One fitpool worker, because the split search's fan-out
// allocates per goroutine.
func TestHistFitAllocBound(t *testing.T) {
	defer fitpool.SetWorkers(fitpool.Workers())
	fitpool.SetWorkers(1)
	X, y := benchData(800, 6)
	cfg := Config{NumTrees: 25, MaxDepth: 3, Seed: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Train(X, y, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perTree := allocs / float64(cfg.NumTrees); perTree > 30 {
		t.Fatalf("histogram fit allocates %.0f times per tree (%v per fit), want <= 30", perTree, allocs)
	}
}
