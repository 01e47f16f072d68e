package closestpair

import (
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
)

func TestFitScoreBasics(t *testing.T) {
	d := New([]string{"a", "b"})
	if _, err := d.Score([]float64{1, 2}); err != detector.ErrNotFitted {
		t.Error("unfitted Score should error")
	}
	ref := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	if d.Channels() != 2 {
		t.Errorf("Channels = %d", d.Channels())
	}
	if names := d.ChannelNames(); names[0] != "a" || names[1] != "b" {
		t.Errorf("ChannelNames = %v", names)
	}
	// Exact member: zero scores.
	s, err := d.Score([]float64{2, 20})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 0 || s[1] != 0 {
		t.Errorf("member score = %v, want zeros", s)
	}
	// Between values: distance to nearer one.
	s, _ = d.Score([]float64{2.4, 14})
	if diff := s[0] - 0.4; diff > 1e-12 || diff < -1e-12 { // |2.4-2|
		t.Errorf("s[0] = %v, want 0.4", s[0])
	}
	if s[1] != 4 { // |14-10|
		t.Errorf("s[1] = %v, want 4", s[1])
	}
	// Outside the range: distance to extreme.
	s, _ = d.Score([]float64{-1, 100})
	if s[0] != 2 || s[1] != 70 {
		t.Errorf("outside scores = %v, want [2 70]", s)
	}
	if _, err := d.Score([]float64{1}); err != detector.ErrDimension {
		t.Error("dimension mismatch should error")
	}
}

func TestFitErrors(t *testing.T) {
	d := New(nil)
	if err := d.Fit(nil); err != detector.ErrEmptyReference {
		t.Error("empty ref should error")
	}
	// Ragged rows, the first row narrower or empty included, fail
	// before any column is read.
	for _, ref := range [][][]float64{{{1, 2}, {3}}, {{1}, {2, 3}}, {{}, {1, 2}}, {{}, {}}} {
		if err := d.Fit(ref); err != detector.ErrDimension {
			t.Errorf("Fit(%v) = %v, want ErrDimension", ref, err)
		}
	}
	// Nil names fall back to numbered channels.
	if err := d.Fit([][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	names := d.ChannelNames()
	if names[0] != "feature-0" || names[2] != "feature-2" {
		t.Errorf("fallback names = %v", names)
	}
}

func TestRefit(t *testing.T) {
	d := New(nil)
	if err := d.Fit([][]float64{{0}, {100}}); err != nil {
		t.Fatal(err)
	}
	s1, _ := d.Score([]float64{50})
	if s1[0] != 50 {
		t.Errorf("pre-refit score = %v", s1)
	}
	if err := d.Fit([][]float64{{49}, {51}}); err != nil {
		t.Fatal(err)
	}
	s2, _ := d.Score([]float64{50})
	if s2[0] != 1 {
		t.Errorf("post-refit score = %v, want 1", s2)
	}
}

func TestScoreIsMinDistanceProperty(t *testing.T) {
	// Property: the score equals the true minimum |x - ref_i| computed
	// by brute force, for random data.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		ref := make([][]float64, n)
		for i := range ref {
			ref[i] = []float64{rng.NormFloat64() * 10}
		}
		d := New(nil)
		if err := d.Fit(ref); err != nil {
			t.Fatal(err)
		}
		q := rng.NormFloat64() * 15
		s, _ := d.Score([]float64{q})
		best := -1.0
		for _, r := range ref {
			diff := q - r[0]
			if diff < 0 {
				diff = -diff
			}
			if best < 0 || diff < best {
				best = diff
			}
		}
		if diff := s[0] - best; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("score %v != brute-force min %v", s[0], best)
		}
	}
}

func TestAnomalousFeatureGetsHighChannel(t *testing.T) {
	// Reference: correlations near +1 on channel 0, near 0 on channel 1.
	var ref [][]float64
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		ref = append(ref, []float64{0.95 + rng.Float64()*0.05, rng.Float64()*0.1 - 0.05})
	}
	d := New([]string{"corr(rpm,speed)", "corr(rpm,coolant)"})
	if err := d.Fit(ref); err != nil {
		t.Fatal(err)
	}
	// A fault flips channel 0 toward 0.2: only channel 0 should score high.
	s, _ := d.Score([]float64{0.2, 0.0})
	if s[0] < 0.5 {
		t.Errorf("faulty channel score = %v, want large", s[0])
	}
	if s[1] > 0.06 {
		t.Errorf("healthy channel score = %v, want small", s[1])
	}
}
