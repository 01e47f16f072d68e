package eval

import (
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/transform"
)

func TestTechniqueMetadata(t *testing.T) {
	want := map[Technique]string{
		ClosestPair: "closest-pair", Grand: "grand", TranAD: "tranad", XGBoost: "xgboost",
	}
	for tech, name := range want {
		if tech.String() != name {
			t.Errorf("%d.String() = %q", tech, tech.String())
		}
		d, err := NewDetector(tech, []string{"a", "b", "c", "d", "e", "f"}, 1)
		if err != nil || d == nil {
			t.Errorf("NewDetector(%v) failed: %v", tech, err)
		}
	}
	if Technique(9).String() != "Technique(9)" {
		t.Error("unknown technique format")
	}
	if _, err := NewDetector(Technique(9), nil, 1); err == nil {
		t.Error("unknown technique should error")
	}
	if !Grand.UsesConstantThreshold() || ClosestPair.UsesConstantThreshold() {
		t.Error("constant-threshold flags wrong")
	}
	if len(PaperTechniques()) != 4 {
		t.Error("PaperTechniques should have 4 entries")
	}
}

// TestThresholdKindAndRetiredValues pins that Grand alone is thresholded
// with constants, and that the enum values after XGBoost, once the removed
// isolation-forest and MLP baselines, build no detector.
func TestThresholdKindAndRetiredValues(t *testing.T) {
	for _, tech := range append(PaperTechniques(), XGBoost+1, XGBoost+2) {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			if got, want := tech.UsesConstantThreshold(), tech == Grand; got != want {
				t.Errorf("UsesConstantThreshold = %v, want %v", got, want)
			}
			d, err := NewDetector(tech, []string{"a", "b", "c"}, 1)
			if retired := tech > XGBoost; retired != (err != nil) || retired != (d == nil) {
				t.Errorf("NewDetector = (%v, %v), retired = %v", d, err, retired)
			}
		})
	}
}

func TestRunGridSmall(t *testing.T) {
	cfg := fleetsim.SmallConfig()
	f := fleetsim.Generate(cfg)
	spec := GridSpec{
		Records: f.Records,
		Events:  f.Events,
		Settings: map[string][]string{
			"settingAll":    f.AllVehicleIDs(),
			"settingEvents": f.EventVehicleIDs(),
		},
		Techniques:      []Technique{ClosestPair, Grand},
		Transforms:      []transform.Kind{transform.Correlation, transform.MeanAgg},
		PHs:             []time.Duration{15 * 24 * time.Hour, 30 * 24 * time.Hour},
		Factors:         []float64{3, 6},
		ConstThresholds: []float64{0.9, 0.99},
		Window:          15,
		ProfileWindowed: 25,
		ProfileRaw:      400,
	}
	res, err := RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 techniques × 2 transforms × 2 PHs × 2 settings = 16 cells.
	if len(res.Cells) != 16 {
		t.Fatalf("got %d cells, want 16", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Best.Precision < 0 || c.Best.Precision > 1 || c.Best.Recall < 0 || c.Best.Recall > 1 {
			t.Errorf("cell %v/%v/%v/%s has invalid metrics %+v", c.Technique, c.Transform, c.PH, c.Setting, c.Best)
		}
		if c.Best.TotalFailures == 0 {
			t.Errorf("cell %s has no failures to detect", c.Setting)
		}
	}
	// Timing recorded for every technique × transform.
	if len(res.Timing) != 4 {
		t.Errorf("timing entries = %d, want 4", len(res.Timing))
	}
	for k, d := range res.Timing {
		if d <= 0 {
			t.Errorf("timing %v = %v", k, d)
		}
	}
	// Cell lookup.
	c := res.Cell(ClosestPair, transform.Correlation, 30*24*time.Hour, "settingEvents")
	if c == nil {
		t.Fatal("Cell lookup failed")
	}
	if res.Cell(TranAD, transform.Raw, time.Hour, "nope") != nil {
		t.Error("nonexistent cell should be nil")
	}
}

func TestRunGridClosestPairCorrelationDetects(t *testing.T) {
	// The headline sanity check: closest-pair on correlation data must
	// detect at least one failure with non-trivial precision on the
	// small fleet at PH=30d in the events setting.
	cfg := fleetsim.SmallConfig()
	f := fleetsim.Generate(cfg)
	spec := GridSpec{
		Records:    f.Records,
		Events:     f.Events,
		Settings:   map[string][]string{"setting": f.EventVehicleIDs()},
		Techniques: []Technique{ClosestPair},
		Transforms: []transform.Kind{transform.Correlation},
		PHs:        []time.Duration{30 * 24 * time.Hour},
	}
	res, err := RunGrid(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cells[0]
	t.Logf("closest-pair/correlation: F05=%.3f P=%.3f R=%.3f (TP=%d FP=%d of %d failures, param=%v)",
		c.Best.F05, c.Best.Precision, c.Best.Recall, c.Best.TP, c.Best.FP, c.Best.TotalFailures, c.BestParam)
	if c.Best.TP == 0 {
		t.Error("closest-pair on correlations detected no failures at all")
	}
	if c.Best.F05 < 0.2 {
		t.Errorf("closest-pair/correlation F05 = %v, implausibly low", c.Best.F05)
	}
}

func TestRunGridNoVehicles(t *testing.T) {
	if _, err := RunGrid(GridSpec{}); err == nil {
		t.Error("empty grid should error")
	}
}
