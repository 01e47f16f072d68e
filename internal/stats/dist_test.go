package stats

import (
	"math"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNormalCDF(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !approx(got, c.want, 1e-10) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestChiSquareSurvival(t *testing.T) {
	// Reference values from scipy.stats.chi2.sf.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{0, 3, 1},
		{3.841458820694124, 1, 0.05},
		{5.991464547107979, 2, 0.05},
		{7.814727903251179, 3, 0.05},
		{2, 2, math.Exp(-1)}, // chi2(2) is Exp(1/2): sf(x) = exp(-x/2)
		{10, 2, math.Exp(-5)},
	}
	for _, c := range cases {
		if got := ChiSquareSurvival(c.x, c.k); !approx(got, c.want, 1e-9) {
			t.Errorf("ChiSquareSurvival(%v, %d) = %v, want %v", c.x, c.k, got, c.want)
		}
	}
	if !math.IsNaN(ChiSquareSurvival(-1, 2)) {
		t.Error("negative x should be NaN")
	}
	if !math.IsNaN(ChiSquareSurvival(1, 0)) {
		t.Error("k=0 should be NaN")
	}
}

func TestChiSquareSurvivalMonotone(t *testing.T) {
	for k := 1; k <= 10; k++ {
		prev := 1.0
		for x := 0.0; x < 30; x += 0.5 {
			s := ChiSquareSurvival(x, k)
			if s > prev+1e-12 {
				t.Fatalf("survival not monotone at x=%v k=%d: %v > %v", x, k, s, prev)
			}
			if s < 0 || s > 1 {
				t.Fatalf("survival out of range at x=%v k=%d: %v", x, k, s)
			}
			prev = s
		}
	}
}
