package tranad

import (
	"math"
	"math/rand"
	"testing"
)

func synthRef(rng *rand.Rand, n, dim int) [][]float64 {
	ref := make([][]float64, n)
	for i := range ref {
		row := make([]float64, dim)
		for j := range row {
			row[j] = math.Sin(float64(i)/7+float64(j)) + 0.1*rng.NormFloat64()
		}
		ref[i] = row
	}
	return ref
}

// TestFastFitBitIdenticalToLegacy trains the default fast path and the
// LegacyFitKernels path on the same reference and requires
// Float64bits-identical weights and streaming scores: the kernel rewrite
// must not move the optimisation trajectory by a single bit, which is
// what keeps the grid-cell equivalence gate deterministic.
func TestFastFitBitIdenticalToLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := synthRef(rng, 120, 4)

	legacy := New(Config{Epochs: 3, Seed: 5, LegacyFitKernels: true})
	fast := New(Config{Epochs: 3, Seed: 5})
	if err := legacy.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if err := fast.Fit(ref); err != nil {
		t.Fatal(err)
	}

	lp, fp := legacy.params(), fast.params()
	if len(lp) != len(fp) {
		t.Fatalf("param count differs: %d vs %d", len(lp), len(fp))
	}
	for pi := range lp {
		for j := range lp[pi].W {
			if math.Float64bits(lp[pi].W[j]) != math.Float64bits(fp[pi].W[j]) {
				t.Fatalf("param %d weight %d differs: legacy %v fast %v",
					pi, j, lp[pi].W[j], fp[pi].W[j])
			}
		}
	}

	scoreRng := rand.New(rand.NewSource(6))
	for i := 0; i < 40; i++ {
		x := make([]float64, 4)
		for j := range x {
			x[j] = scoreRng.NormFloat64()
		}
		sl, err := legacy.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := fast.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sl[0]) != math.Float64bits(sf[0]) {
			t.Fatalf("score %d differs: legacy %v fast %v", i, sl[0], sf[0])
		}
	}
}
