package thresholds

import "testing"

func TestSelfTuningFitAndViolations(t *testing.T) {
	// Channel 0 scores: 2,4,4,4,5,5,7,9 -> mean 5, std 2.
	// Channel 1 scores: constant 1 -> mean 1, std 0.
	calib := [][]float64{
		{2, 1}, {4, 1}, {4, 1}, {4, 1}, {5, 1}, {5, 1}, {7, 1}, {9, 1},
	}
	th := NewSelfTuning(3)
	if err := th.Fit(calib); err != nil {
		t.Fatal(err)
	}
	vals := th.Values()
	// Channel 0: mean 5, std 2, floored to max(2, 0.5·5)=2.5 → 5+3·2.5.
	if vals[0] != 12.5 {
		t.Errorf("threshold[0] = %v, want 12.5", vals[0])
	}
	// Channel 1: mean 1, std 0 floored to 0.5 → 1+3·0.5.
	if vals[1] != 2.5 {
		t.Errorf("threshold[1] = %v, want 2.5", vals[1])
	}
	if v := th.Violations([]float64{12, 0.5}); v != nil {
		t.Errorf("no violation expected, got %v", v)
	}
	v := th.Violations([]float64{13, 0.5})
	if len(v) != 1 || v[0] != 0 {
		t.Errorf("expected channel-0 violation, got %v", v)
	}
	v = th.Violations([]float64{13, 3})
	if len(v) != 2 {
		t.Errorf("expected two violations, got %v", v)
	}
	// Exactly at threshold is NOT a violation (strict >).
	if v := th.Violations([]float64{12.5, 2.5}); v != nil {
		t.Errorf("boundary should not violate, got %v", v)
	}
}

func TestFloorStd(t *testing.T) {
	for _, c := range []struct {
		name           string
		std, mean, abs float64
		want           float64
	}{
		{"healthy std passes", 3, 4, 0, 3},
		{"degenerate std floored to half the mean", 0.001, 4, 0, 2},
		{"negative mean by magnitude", 0.001, -4, 0, 2},
		{"both tiny: epsilon", 0, 0, 0, 1e-12},
		{"abs above half the mean wins", 0.001, 0.004, 0.01, 0.01},
		{"abs above epsilon wins", 0, 0, 0.01, 0.01},
		{"half the mean above abs wins", 0.001, 4, 0.01, 2},
		{"std above abs passes", 0.05, 0.02, 0.01, 0.05},
	} {
		if got := FloorStd(c.std, c.mean, c.abs); got != c.want {
			t.Errorf("%s: FloorStd(%v, %v, %v) = %v, want %v", c.name, c.std, c.mean, c.abs, got, c.want)
		}
	}
}

// TestCalibrateAbsFloor: the absolute floor reaches the threshold, and
// Fit is Calibrate without it.
func TestCalibrateAbsFloor(t *testing.T) {
	const m = 1.0 / 256
	calib := [][]float64{{m}, {m}, {m}} // std 0, half the mean 1/512
	floored, bare := NewSelfTuning(10), NewSelfTuning(10)
	if err := floored.Calibrate(calib, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := bare.Fit(calib); err != nil {
		t.Fatal(err)
	}
	if got, want := floored.Values()[0], m+10*0.01; got != want {
		t.Errorf("floored threshold = %v, want %v", got, want)
	}
	if got, want := bare.Values()[0], m+10*(m/2); got != want {
		t.Errorf("Fit threshold = %v, want %v (half the mean)", got, want)
	}
}

func TestSelfTuningErrors(t *testing.T) {
	th := NewSelfTuning(2)
	if err := th.Fit(nil); err != ErrNoCalibration {
		t.Error("empty calibration should error")
	}
	if v := th.Violations([]float64{100}); v != nil {
		t.Error("unfitted thresholder must not fire")
	}
	if err := th.Fit([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged calibration should error")
	}
}

func TestSelfTuningPerVehicleVariation(t *testing.T) {
	// Same factor, different calibration data -> different thresholds
	// (the paper's "different threshold for each vehicle, same
	// parametrization").
	a := NewSelfTuning(2)
	b := NewSelfTuning(2)
	if err := a.Fit([][]float64{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit([][]float64{{10}, {20}, {30}}); err != nil {
		t.Fatal(err)
	}
	if a.Values()[0] == b.Values()[0] {
		t.Error("different calibration data should give different thresholds")
	}
}

func TestConstant(t *testing.T) {
	c := NewConstant(0.8)
	if err := c.Calibrate([][]float64{{0.1, 0.2}}, 0.5); err != nil {
		t.Fatal(err)
	}
	if v := c.Violations([]float64{0.7, 0.9}); len(v) != 1 || v[0] != 1 {
		t.Errorf("violations = %v", v)
	}
	if v := c.Violations([]float64{0.8}); v != nil {
		t.Error("boundary should not violate")
	}
	vals := c.Values()
	if len(vals) != 2 || vals[0] != 0.8 {
		t.Errorf("Values = %v", vals)
	}
	// Works without Fit too (defaults to one channel).
	c2 := NewConstant(0.5)
	if len(c2.Values()) != 1 {
		t.Error("unfitted constant should default to one channel")
	}
	if v := c2.Violations([]float64{0.6}); len(v) != 1 {
		t.Error("constant should fire without Fit")
	}
}
