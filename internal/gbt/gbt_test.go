package gbt

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err != ErrNoData {
		t.Error("empty data should error")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Config{}); err != ErrDimension {
		t.Error("X/y length mismatch should error")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, []float64{1, 2}, Config{}); err != ErrDimension {
		t.Error("ragged X should error")
	}
}

func TestFitsStepFunction(t *testing.T) {
	// y = 10 if x > 0.5 else -10 — one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		X = append(X, []float64{v})
		if v > 0.5 {
			y = append(y, 10)
		} else {
			y = append(y, -10)
		}
	}
	r, err := Train(X, y, Config{NumTrees: 30, MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p := r.Predict([]float64{0.1}); math.Abs(p+10) > 0.5 {
		t.Errorf("Predict(0.1) = %v, want ≈ -10", p)
	}
	if p := r.Predict([]float64{0.9}); math.Abs(p-10) > 0.5 {
		t.Errorf("Predict(0.9) = %v, want ≈ 10", p)
	}
	if r.NumTrees() != 30 || r.NumFeatures() != 1 {
		t.Errorf("NumTrees=%d NumFeatures=%d", r.NumTrees(), r.NumFeatures())
	}
}

func TestFitsNonlinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []float64
	f := func(a, b float64) float64 { return a*a - 2*b + a*b }
	for i := 0; i < 600; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		X = append(X, []float64{a, b})
		y = append(y, f(a, b))
	}
	r, err := Train(X, y, Config{NumTrees: 120, MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sse, sst float64
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for i, x := range X {
		d := r.Predict(x) - y[i]
		sse += d * d
		dd := y[i] - mean
		sst += dd * dd
	}
	r2 := 1 - sse/sst
	if r2 < 0.97 {
		t.Errorf("training R² = %v, want ≥ 0.97", r2)
	}
	// Generalisation on fresh points.
	var genErr float64
	n := 100
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		d := r.Predict([]float64{a, b}) - f(a, b)
		genErr += d * d
	}
	genErr /= float64(n)
	if genErr > 0.4 {
		t.Errorf("generalisation MSE = %v, want small", genErr)
	}
}

func TestConstantTarget(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	r, err := Train(X, y, Config{NumTrees: 10})
	if err != nil {
		t.Fatal(err)
	}
	if p := r.Predict([]float64{2.5}); math.Abs(p-7) > 1e-9 {
		t.Errorf("constant target prediction = %v, want 7", p)
	}
}

// TestDeterministicTraining: both split searches grow the same model
// from the same data on every call.
func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		X = append(X, []float64{a, b})
		y = append(y, a+2*b+0.1*rng.NormFloat64())
	}
	for _, legacy := range []bool{false, true} {
		cfg := Config{NumTrees: 20, LegacyFitKernels: legacy}
		r1, _ := Train(X, y, cfg)
		r2, _ := Train(X, y, cfg)
		for i := 0; i < 20; i++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			if math.Float64bits(r1.Predict(x)) != math.Float64bits(r2.Predict(x)) {
				t.Fatalf("LegacyFitKernels=%v: the same data produced different models", legacy)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}
	c.defaults()
	if c.NumTrees != 50 || c.MaxDepth != 4 {
		t.Errorf("defaults = %+v", c)
	}
}
