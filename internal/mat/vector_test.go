package mat

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestSumMean(t *testing.T) {
	cases := []struct {
		in        []float64
		sum, mean float64
	}{
		{nil, 0, math.NaN()},
		{[]float64{}, 0, math.NaN()},
		{[]float64{5}, 5, 5},
		{[]float64{1, 2, 3, 4}, 10, 2.5},
		{[]float64{-1, 1}, 0, 0},
	}
	for _, c := range cases {
		if got := Sum(c.in); !almostEq(got, c.sum, 1e-12) {
			t.Errorf("Sum(%v) = %v, want %v", c.in, got, c.sum)
		}
		if got := Mean(c.in); !almostEq(got, c.mean, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.mean)
		}
	}
}

func TestVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(x); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(x); !almostEq(got, 2, 1e-12) {
		t.Errorf("Std = %v, want 2", got)
	}
	if !math.IsNaN(Variance(nil)) {
		t.Error("Variance(nil) should be NaN")
	}
	if got := Variance([]float64{3, 3, 3}); got != 0 {
		t.Errorf("Variance of constant = %v, want 0", got)
	}
}

func TestMedianQuantile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	x := []float64{1, 2, 3, 4, 5}
	if got := Quantile(x, 0); got != 1 {
		t.Errorf("Q0 = %v, want 1", got)
	}
	if got := Quantile(x, 1); got != 5 {
		t.Errorf("Q1 = %v, want 5", got)
	}
	if got := Quantile(x, 0.25); got != 2 {
		t.Errorf("Q.25 = %v, want 2", got)
	}
	// NumPy: quantile([1,2,3,4], 0.9) == 3.7
	if got := Quantile([]float64{1, 2, 3, 4}, 0.9); !almostEq(got, 3.7, 1e-12) {
		t.Errorf("Q.9 = %v, want 3.7", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile(nil) should be NaN")
	}
	if !math.IsNaN(Quantile(x, -0.1)) || !math.IsNaN(Quantile(x, 1.1)) {
		t.Error("Quantile outside [0,1] should be NaN")
	}
	// Quantile must not mutate its input.
	orig := []float64{9, 1, 5}
	Quantile(orig, 0.5)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileAgainstSortLargeInput(t *testing.T) {
	// Exercise the merge-sort path (len > 64) against the stdlib sort.
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 501)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	sorted := Clone(x)
	sort.Float64s(sorted)
	if got := Quantile(x, 0); got != sorted[0] {
		t.Errorf("Q0 = %v, want %v", got, sorted[0])
	}
	if got := Quantile(x, 1); got != sorted[len(sorted)-1] {
		t.Errorf("Q1 = %v, want %v", got, sorted[len(sorted)-1])
	}
	if got := Quantile(x, 0.5); got != sorted[250] {
		t.Errorf("Q.5 = %v, want %v", got, sorted[250])
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil || !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect positive: r=%v err=%v", r, err)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect negative: r=%v", r)
	}
	// Hand-computed: x=[1,2,3], y=[1,3,2] => r = 0.5
	r, _ = Pearson([]float64{1, 2, 3}, []float64{1, 3, 2})
	if !almostEq(r, 0.5, 1e-12) {
		t.Errorf("r = %v, want 0.5", r)
	}
	// Constant signal => defined as 0.
	r, err = Pearson(x, []float64{7, 7, 7, 7, 7})
	if err != nil || r != 0 {
		t.Errorf("constant signal: r=%v err=%v", r, err)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := Pearson(nil, nil); err == nil {
		t.Error("empty inputs should error")
	}
}

func TestPearsonPropertyBounded(t *testing.T) {
	f := func(a, b [8]float64) bool {
		// Map quick's unbounded values into a finite range so the
		// moment sums cannot overflow to ±Inf.
		x := make([]float64, len(a))
		y := make([]float64, len(b))
		for i := range a {
			x[i] = math.Remainder(a[i], 1e6)
			y[i] = math.Remainder(b[i], 1e6)
			if math.IsNaN(x[i]) {
				x[i] = 0
			}
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		r, err := Pearson(x, y)
		if err != nil {
			return false
		}
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPearsonPropertySymmetricAndScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		rxy, _ := Pearson(x, y)
		ryx, _ := Pearson(y, x)
		if !almostEq(rxy, ryx, 1e-12) {
			t.Fatalf("Pearson not symmetric: %v vs %v", rxy, ryx)
		}
		// Positive affine transform must not change r.
		x2 := make([]float64, n)
		for i := range x {
			x2[i] = 3.5*x[i] + 100
		}
		r2, _ := Pearson(x2, y)
		if !almostEq(rxy, r2, 1e-9) {
			t.Fatalf("Pearson not scale invariant: %v vs %v", rxy, r2)
		}
	}
}

func TestDistances(t *testing.T) {
	x := []float64{0, 0}
	y := []float64{3, 4}
	if d, _ := Euclidean(x, y); !almostEq(d, 5, 1e-12) {
		t.Errorf("Euclidean = %v, want 5", d)
	}
	if d, _ := SquaredEuclidean(x, y); !almostEq(d, 25, 1e-12) {
		t.Errorf("SquaredEuclidean = %v, want 25", d)
	}
	if _, err := Euclidean(x, []float64{1}); err == nil {
		t.Error("mismatched Euclidean should error")
	}
	if _, err := SquaredEuclidean(x, []float64{1}); err == nil {
		t.Error("mismatched SquaredEuclidean should error")
	}
}

func TestDistancePropertiesTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dab, _ := Euclidean(a, b)
		dbc, _ := Euclidean(b, c)
		dac, _ := Euclidean(a, c)
		if dac > dab+dbc+1e-9 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", dac, dab, dbc)
		}
		dba, _ := Euclidean(b, a)
		if !almostEq(dab, dba, 1e-12) {
			t.Fatalf("Euclidean not symmetric")
		}
	}
}

func TestClone(t *testing.T) {
	x := []float64{3, 5}
	c := Clone(x)
	c[0] = 99
	if x[0] == 99 {
		t.Error("Clone did not copy")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp wrong")
	}
}
