package gbt

import (
	"math"
	"math/rand"
	"testing"
)

// denseScan is the split scan as it first shipped: every bin of the
// feature in order, empty ones skipped by their count. It is the oracle
// for scanFeature's walk over the occupancy bitmap.
func denseScan(b *histBuilder, f int, h *nodeHist, gTot, hTot, parent float64) (thr, gain float64) {
	bins := h.bins[2*b.off[f] : 2*b.off[f+1]]
	lo, hi := b.cols[f].lo, b.cols[f].hi
	var gl, hl float64
	prev := -1
	for k := range lo {
		if bins[2*k+1] == 0 {
			continue
		}
		if prev >= 0 && hl >= minChildWeight && hTot-hl >= minChildWeight {
			gr, hr := gTot-gl, hTot-hl
			gn := 0.5 * (gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent)
			if gn > gain {
				gain, thr = gn, (hi[prev]+lo[k])/2
			}
		}
		gl += bins[2*k]
		hl += bins[2*k+1]
		prev = k
	}
	return thr, gain
}

// edgeData draws n × dim standard normals; shape then rewrites columns.
func edgeData(seed int64, n, dim int, shape func(i int, row []float64)) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, dim)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		if shape != nil {
			shape(i, row)
		}
		X[i] = row
		y[i] = row[0] - 2*row[dim-1] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// distinct gives column 1 exactly d distinct values, visited in a
// scattered order, and rounds the other columns onto a grid of far
// fewer than maxBins values.
func distinct(d int) func(int, []float64) {
	return func(i int, row []float64) {
		for j := range row {
			row[j] = math.Round(row[j]*16) / 16
		}
		row[1] = float64(i*97%d) / 8
	}
}

var edgeCases = []struct {
	name     string
	n, dim   int
	shape    func(i int, row []float64)
	cfg      Config
	lossless bool // no NaN, at most maxBins distinct values: the exact search must grow the same trees
	wantBins int  // bins of column 1, if set
	flat     bool // a constant target and zero gradients: every split gains exactly 0
	oneRow   bool // some tree must leave a leaf holding a single row
}{
	{name: "one-bin feature", n: 50, dim: 3, shape: func(_ int, row []float64) { row[1] = 1.5 }, lossless: true, wantBins: 1},
	{name: "deep", n: 200, dim: 5, cfg: Config{MaxDepth: 6}, lossless: true},
	{name: "n=1", n: 1, dim: 2, lossless: true},
	{name: "n=2", n: 2, dim: 2, lossless: true, oneRow: true},
	{name: "n=3", n: 3, dim: 4, lossless: true, oneRow: true},
	{name: "one-row nodes", n: 12, dim: 3, cfg: Config{MaxDepth: 6}, lossless: true, oneRow: true},
	{name: "zero gain", n: 20, dim: 3, lossless: true, flat: true},
	{name: "255 distinct", n: 600, dim: 3, shape: distinct(255), lossless: true, wantBins: 255},
	{name: "256 distinct", n: 600, dim: 3, shape: distinct(256), lossless: true, wantBins: 256},
	{name: "257 distinct", n: 600, dim: 3, shape: distinct(257), wantBins: 256},
	{name: "nan rows, spare bin index", n: 80, dim: 3, shape: func(i int, row []float64) {
		if i%9 == 4 {
			row[1] = math.NaN()
		}
	}},
	{name: "nan rows, all 256 bins used", n: 400, dim: 3, shape: func(i int, row []float64) {
		if i%40 == 4 {
			row[1] = math.NaN()
		}
	}, wantBins: 256},
}

// TestHistEdgeCases drives the histogram grower one tree at a time over
// the inputs its compact layout is most likely to get wrong, and checks
// every tree three ways: the output build records for each row (the
// leaf it was partitioned into) against tree.predict, bit for bit; the
// bitmap scan against the dense scan, on freshly filled and on
// subtracted histograms; and that no tree splits on a one-bin feature,
// and none on fewer than two rows or a zero gain. Lossless cases must
// also grow the trees of the exact search.
func TestHistEdgeCases(t *testing.T) {
	for _, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			X, y := edgeData(31, tc.n, tc.dim, tc.shape)
			if tc.flat {
				for i := range y {
					y[i] = 1.5
				}
			}
			cfg := tc.cfg
			cfg.NumTrees = 8
			if cfg.MaxDepth == 0 {
				cfg.MaxDepth = 3
			}
			cfg.defaults()
			m := NewDesign(X)
			if tc.wantBins != 0 && len(m.cols[1].lo) != tc.wantBins {
				t.Fatalf("column 1 has %d bins, want %d", len(m.cols[1].lo), tc.wantBins)
			}
			b := newHistBuilder(m.cols, cfg)
			rng := rand.New(rand.NewSource(5))
			grad, out := make([]float64, tc.n), make([]float64, tc.n)
			oneRow := false
			for round := 0; round < cfg.NumTrees; round++ {
				for i := range grad {
					if !tc.flat {
						grad[i] = rng.NormFloat64() - y[i]
					}
				}
				tr := b.build(grad, out)
				rowsAt := map[float64]int{} // rows per leaf weight
				for i, x := range X {
					want := tr.predict(x)
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("round %d row %d: build recorded %v, the tree predicts %v", round, i, out[i], want)
					}
					rowsAt[want]++
				}
				for _, n := range tr.nodes {
					if !n.isLeaf && len(m.cols[n.feature].lo) == 1 {
						t.Fatalf("round %d: split on one-bin feature %d", round, n.feature)
					}
					if n.isLeaf && rowsAt[n.leaf] == 1 {
						oneRow = true
					}
				}
				if (tc.n < 2*minChildWeight || tc.flat) && len(tr.nodes) != 1 {
					t.Fatalf("round %d: %d nodes, want a lone leaf", round, len(tr.nodes))
				}
				checkScans(t, b, rng)
			}
			if tc.oneRow && !oneRow {
				t.Fatal("no tree left a leaf holding a single row")
			}
			if !tc.lossless {
				return
			}
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
			for ti := range exact.trees {
				en, hn := exact.trees[ti].nodes, hist.trees[ti].nodes
				if len(en) != len(hn) {
					t.Fatalf("tree %d: %d nodes, the exact search grew %d", ti, len(hn), len(en))
				}
				for ni := range en {
					e, h := en[ni], hn[ni]
					if e.isLeaf != h.isLeaf || e.feature != h.feature || e.left != h.left || e.right != h.right ||
						math.Float64bits(e.threshold) != math.Float64bits(h.threshold) || math.Abs(e.leaf-h.leaf) > 1e-9 {
						t.Fatalf("tree %d node %d: %+v, the exact search grew %+v", ti, ni, h, e)
					}
				}
			}
		})
	}
}

// checkScans fills a histogram from all rows and one from a random
// subset, subtracts, and compares scanFeature with denseScan on the
// subset's histogram (sparse bitmap) and on the remainder's (the
// parent's bitmap over a child's counts).
func checkScans(t *testing.T, b *histBuilder, rng *rand.Rand) {
	t.Helper()
	all := b.rows
	if len(all) < 2 {
		return
	}
	var sub, rest []int
	for _, i := range all {
		if rng.Intn(3) == 0 {
			sub = append(sub, i)
		} else {
			rest = append(rest, i)
		}
	}
	h, hs := b.get(), b.get()
	defer b.put(h)
	defer b.put(hs)
	b.fill(h, all)
	b.fill(hs, sub)
	h.subtract(hs)
	for f := range b.cols {
		for _, node := range []struct {
			h    *nodeHist
			rows []int
		}{{hs, sub}, {h, rest}} {
			var g float64
			for _, i := range node.rows {
				g += b.grad[i]
			}
			hess := float64(len(node.rows))
			parent := g * g / (hess + lambda)
			thr, gain := b.scanFeature(f, node.h, g, hess, parent)
			wantThr, wantGain := denseScan(b, f, node.h, g, hess, parent)
			if math.Float64bits(gain) != math.Float64bits(wantGain) || (gain > 0 && math.Float64bits(thr) != math.Float64bits(wantThr)) {
				t.Fatalf("feature %d over %d rows: bitmap scan (thr %v, gain %v), dense scan (thr %v, gain %v)", f, len(node.rows), thr, gain, wantThr, wantGain)
			}
		}
	}
}
