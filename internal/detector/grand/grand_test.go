package grand

import (
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/detector"
)

func normalRef(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	ref := make([][]float64, n)
	for i := range ref {
		ref[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
	}
	return ref
}

func TestMeasureString(t *testing.T) {
	if Median.String() != "median" || KNN.String() != "knn" || LOF.String() != "lof" {
		t.Error("measure names wrong")
	}
	if Measure(9).String() != "Measure(9)" {
		t.Error("unknown measure format")
	}
}

func TestGrandLifecycle(t *testing.T) {
	for _, m := range []Measure{Median, KNN, LOF} {
		d := New(Config{Measure: m})
		if d.Channels() != 1 || d.ChannelNames()[0] != "deviation" {
			t.Errorf("%v: channel metadata wrong", m)
		}
		if _, err := d.Score([]float64{0, 0}); err != detector.ErrNotFitted {
			t.Errorf("%v: unfitted Score should error", m)
		}
		if err := d.Fit(nil); err != detector.ErrEmptyReference {
			t.Errorf("%v: empty ref should error", m)
		}
		if err := d.Fit([][]float64{{1, 2}, {3}}); err != detector.ErrDimension {
			t.Errorf("%v: ragged ref should error", m)
		}
		if err := d.Fit(normalRef(100, 1)); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if _, err := d.Score([]float64{0}); err != detector.ErrDimension {
			t.Errorf("%v: dim mismatch should error", m)
		}
		s, err := d.Score([]float64{0, 0})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(s) != 1 || s[0] < 0 || s[0] >= 1 {
			t.Errorf("%v: deviation = %v, want [0,1)", m, s)
		}
	}
}

func TestGrandDeviationGrowsUnderShift(t *testing.T) {
	// Healthy stream keeps deviation moderate; a shifted stream drives
	// it toward 1 for every measure.
	for _, m := range []Measure{Median, KNN, LOF} {
		d := New(Config{Measure: m, MartingaleWindow: 20})
		if err := d.Fit(normalRef(200, 7)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		var healthyMax float64
		for i := 0; i < 60; i++ {
			s, err := d.Score([]float64{rng.NormFloat64(), rng.NormFloat64()})
			if err != nil {
				t.Fatal(err)
			}
			if s[0] > healthyMax {
				healthyMax = s[0]
			}
		}
		// Shifted regime: consistently strange samples.
		var last float64
		for i := 0; i < 40; i++ {
			s, _ := d.Score([]float64{8 + rng.NormFloat64(), 8 + rng.NormFloat64()})
			last = s[0]
		}
		if last < 0.95 {
			t.Errorf("%v: deviation after sustained shift = %v, want ≈1", m, last)
		}
		if healthyMax >= 0.999 {
			t.Errorf("%v: healthy deviation reached %v — martingale too jumpy", m, healthyMax)
		}
	}
}

func TestGrandRecoversAfterRefit(t *testing.T) {
	d := New(Config{Measure: KNN})
	if err := d.Fit(normalRef(150, 3)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		d.Score([]float64{9, 9})
	}
	s, _ := d.Score([]float64{9, 9})
	if s[0] < 0.9 {
		t.Fatalf("pre-refit deviation = %v", s[0])
	}
	// Refit resets the martingale: deviation drops back.
	if err := d.Fit(normalRef(150, 5)); err != nil {
		t.Fatal(err)
	}
	s, _ = d.Score([]float64{rng.NormFloat64(), rng.NormFloat64()})
	if s[0] > 0.9 {
		t.Errorf("post-refit deviation = %v, want reset", s[0])
	}
}

func TestGrandPValueRange(t *testing.T) {
	d := New(Config{Measure: Median})
	if err := d.Fit(normalRef(50, 11)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 100; i++ {
		p := d.pValue(d.strangeness([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}))
		if p <= 0 || p > 1 {
			t.Fatalf("p-value out of range: %v", p)
		}
	}
	// The strangest possible sample still has p >= 0.5/(n+1) > 0.
	p := d.pValue(1e12)
	if p <= 0 {
		t.Errorf("max-strangeness p-value = %v, want > 0", p)
	}
}

func TestGrandConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.MartingaleWindow != 30 {
		t.Errorf("defaults = %+v", c)
	}
}
