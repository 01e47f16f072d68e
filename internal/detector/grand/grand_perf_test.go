package grand

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/neighbors"
)

// TestPValueBinaryMatchesLinear pins the O(log n) conformal p-value to
// the original linear scan, to exact float equality, across ties,
// in-between values, extremes and NaN queries.
func TestPValueBinaryMatchesLinear(t *testing.T) {
	d := New(Config{Measure: KNN})
	if err := d.Fit(normalRef(300, 21)); err != nil {
		t.Fatal(err)
	}
	queries := []float64{math.Inf(-1), -1, 0, 1e-9, 0.5, 1e12, math.Inf(1), math.NaN()}
	// Exact reference scores are the tie cases that matter.
	queries = append(queries, d.refNC[0], d.refNC[17], d.refNC[299])
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		queries = append(queries, rng.NormFloat64()*2)
	}
	for _, s := range queries {
		want, got := d.pValueLinear(s), d.pValue(s)
		if want != got && !(math.IsNaN(want) && math.IsNaN(got)) {
			t.Errorf("pValue(%v) = %v, linear scan = %v", s, got, want)
		}
	}
}

// TestPValueWithDuplicateRefs exercises heavy ties: many identical
// reference scores must still count half-mass exactly like the scan.
func TestPValueWithDuplicateRefs(t *testing.T) {
	d := New(Config{Measure: Median})
	ref := make([][]float64, 120)
	for i := range ref {
		ref[i] = []float64{float64(i % 4), 0} // only 4 distinct distances
	}
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0, 0.5, 1, 1.5, 2, 3, 5} {
		if want, got := d.pValueLinear(s), d.pValue(s); want != got {
			t.Errorf("pValue(%v) = %v, linear scan = %v", s, got, want)
		}
	}
}

// TestGrandKDRefNCMatchesBrute verifies that crossing the k-d tree
// cutoff changes nothing observable for the KNN measure: every
// reference non-conformity score computed through the tree equals the
// brute-force mean k-NN distance to the last bit.
func TestGrandKDRefNCMatchesBrute(t *testing.T) {
	ref := normalRef(kdCutoff+150, 31) // forces the tree path
	d := New(Config{Measure: KNN})
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.index.(*neighbors.KDTree); !ok {
		t.Fatalf("reference of %d points should build a KDTree, got %T", len(ref), d.index)
	}
	brute, err := neighbors.NewBrute(ref)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ref {
		if want := neighbors.KNNDistance(brute, row, numNeighbours); want != d.refNC[i] {
			t.Fatalf("refNC[%d] = %v via tree, %v via brute scan", i, d.refNC[i], want)
		}
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 100; i++ {
		x := []float64{rng.NormFloat64() * 2, rng.NormFloat64() * 2}
		if want, got := neighbors.KNNDistance(brute, x, numNeighbours), d.strangeness(x); want != got {
			t.Fatalf("strangeness(%v) = %v via tree, %v via brute scan", x, got, want)
		}
	}
}

// TestGrandScoreIntoMatchesScore pins ScoreInto to Score on identical
// martingale state.
func TestGrandScoreIntoMatchesScore(t *testing.T) {
	for _, m := range []Measure{Median, KNN, LOF} {
		a := New(Config{Measure: m})
		b := New(Config{Measure: m})
		ref := normalRef(kdCutoff+44, 41)
		if err := a.Fit(ref); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(ref); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		dst := make([]float64, 1)
		for i := 0; i < 80; i++ {
			x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
			s, err := a.Score(x)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.ScoreInto(x, dst); err != nil {
				t.Fatal(err)
			}
			if s[0] != dst[0] {
				t.Fatalf("%v: Score %v != ScoreInto %v at step %d", m, s[0], dst[0], i)
			}
		}
	}
}

// TestGrandLegacyKernelsMatch pins the LegacyKernels baseline (brute
// index, index re-queries for refNC, linear p-value) to the optimised
// kernels score-for-score, on both sides of the k-d tree cutoff and for
// every measure. This is what makes the grid-throughput benchmark's
// reference leg a fair baseline: same outputs, original asymptotics.
func TestGrandLegacyKernelsMatch(t *testing.T) {
	for _, m := range []Measure{Median, KNN, LOF} {
		for _, n := range []int{120, kdCutoff + 90} {
			fast := New(Config{Measure: m})
			legacy := New(Config{Measure: m, LegacyKernels: true})
			ref := normalRef(n, 61)
			if err := fast.Fit(ref); err != nil {
				t.Fatal(err)
			}
			if err := legacy.Fit(ref); err != nil {
				t.Fatal(err)
			}
			if _, ok := legacy.index.(*neighbors.KDTree); ok && m != Median {
				t.Fatalf("%v n=%d: legacy detector must not build a KDTree", m, n)
			}
			for i := range fast.refNC {
				if fast.refNC[i] != legacy.refNC[i] {
					t.Fatalf("%v n=%d: refNC[%d] = %v fast, %v legacy", m, n, i, fast.refNC[i], legacy.refNC[i])
				}
			}
			rng := rand.New(rand.NewSource(62))
			for i := 0; i < 60; i++ {
				x := []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
				a, err := fast.Score(x)
				if err != nil {
					t.Fatal(err)
				}
				b, err := legacy.Score(x)
				if err != nil {
					t.Fatal(err)
				}
				if a[0] != b[0] {
					t.Fatalf("%v n=%d: fast score %v != legacy score %v at step %d", m, n, a[0], b[0], i)
				}
			}
		}
	}
}

// TestGrandScoreIntoZeroAlloc pins the steady-state scoring path to
// zero allocations for the Median and KNN measures, on both sides of
// the index cutoff.
func TestGrandScoreIntoZeroAlloc(t *testing.T) {
	for _, m := range []Measure{Median, KNN} {
		for _, n := range []int{100, kdCutoff + 144} {
			d := New(Config{Measure: m})
			if err := d.Fit(normalRef(n, 51)); err != nil {
				t.Fatal(err)
			}
			x := []float64{0.3, -0.7}
			dst := make([]float64, 1)
			// Warm the reusable query buffers.
			for i := 0; i < 5; i++ {
				if err := d.ScoreInto(x, dst); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := d.ScoreInto(x, dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%v n=%d: ScoreInto allocated %.1f per run, want 0", m, n, allocs)
			}
		}
	}
}
