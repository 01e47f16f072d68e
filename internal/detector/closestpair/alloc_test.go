package closestpair

import (
	"math/rand"
	"testing"
)

// fittedDetector builds a detector fitted on a 45×15 reference — the
// complete solution's shape (correlation features, windowed profile).
func fittedDetector(tb testing.TB) (*Detector, []float64, []float64) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	ref := make([][]float64, 45)
	for i := range ref {
		row := make([]float64, 15)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		ref[i] = row
	}
	d := New(nil)
	if err := d.Fit(ref); err != nil {
		tb.Fatal(err)
	}
	x := make([]float64, 15)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	return d, x, make([]float64, 15)
}

// TestScoreIntoZeroAlloc pins the acceptance criterion: the steady-state
// closest-pair scoring fast path performs no heap allocation.
func TestScoreIntoZeroAlloc(t *testing.T) {
	d, x, dst := fittedDetector(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := d.ScoreInto(x, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ScoreInto allocates %.1f allocs/op, want 0", allocs)
	}
}

// benchQueries returns 4 096 seeded random vectors for the benchmarks to
// cycle through. Scoring one fixed vector lets the branch predictor
// learn all 15 binary searches: on a 2-CPU Xeon that read 233–236 ns/op
// against 877–913 for varied queries, which is what ingest pays.
func benchQueries() [][]float64 {
	rng := rand.New(rand.NewSource(8))
	qs := make([][]float64, 4096)
	for i := range qs {
		qs[i] = make([]float64, 15)
		for j := range qs[i] {
			qs[i][j] = rng.NormFloat64()
		}
	}
	return qs
}

// BenchmarkScoreInto measures the allocation-free scoring fast path;
// allocs/op must report 0.
func BenchmarkScoreInto(b *testing.B) {
	d, _, dst := fittedDetector(b)
	qs := benchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ScoreInto(qs[i%len(qs)], dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScore measures the allocating interface path for contrast.
func BenchmarkScore(b *testing.B) {
	d, _, _ := fittedDetector(b)
	qs := benchQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Score(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
