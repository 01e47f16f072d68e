package regress

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/gbt"
)

func fitSynth(t *testing.T, seed int64, rows, dim int) (*Detector, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ref := make([][]float64, rows)
	for i := range ref {
		row := make([]float64, dim)
		base := rng.NormFloat64()
		for j := range row {
			row[j] = base*float64(j+1) + 0.1*rng.NormFloat64()
		}
		ref[i] = row
	}
	d := New(nil, gbt.Config{NumTrees: 10, MaxDepth: 3})
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	return d, rng
}

// TestScoreIntoMatchesScore requires bit-identical per-channel scores
// from the allocating path, the scratch path and the ScoreLegacy
// oracle: ScoreInto reorders no arithmetic, it only reuses buffers.
func TestScoreIntoMatchesScore(t *testing.T) {
	d, rng := fitSynth(t, 7, 150, 5)
	x := make([]float64, 5)
	dst := make([]float64, 5)
	for i := 0; i < 50; i++ {
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		want, err := d.Score(x)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.ScoreInto(x, dst); err != nil {
			t.Fatal(err)
		}
		legacy, err := d.ScoreLegacy(x)
		if err != nil {
			t.Fatal(err)
		}
		for c := range want {
			if math.Float64bits(want[c]) != math.Float64bits(dst[c]) {
				t.Fatalf("sample %d channel %d: Score %v vs ScoreInto %v", i, c, want[c], dst[c])
			}
			if math.Float64bits(legacy[c]) != math.Float64bits(dst[c]) {
				t.Fatalf("sample %d channel %d: ScoreLegacy %v vs ScoreInto %v", i, c, legacy[c], dst[c])
			}
		}
	}
}

// TestScoreIntoAllocFree pins the zero-allocation contract of the warm
// regression scoring path.
func TestScoreIntoAllocFree(t *testing.T) {
	d, rng := fitSynth(t, 11, 150, 6)
	x := make([]float64, 6)
	dst := make([]float64, 6)
	for j := range x {
		x[j] = rng.NormFloat64()
	}
	if err := d.ScoreInto(x, dst); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := d.ScoreInto(x, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ScoreInto allocates %v times per record", allocs)
	}
}
