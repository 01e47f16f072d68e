package pdm

import (
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector/grand"
	"github.com/navarchos/pdm/internal/detector/tranad"
	"github.com/navarchos/pdm/internal/fleetsim"
	"github.com/navarchos/pdm/internal/thresholds"
)

// TestEveryDetectorRunsInPipeline drives each of the four detector
// families through the full streaming pipeline on real simulator data —
// the integration surface a downstream user exercises.
func TestEveryDetectorRunsInPipeline(t *testing.T) {
	cfg := SmallFleetConfig()
	cfg.Days = 60
	cfg.NumVehicles = 2
	cfg.RecordedVehicles = 2
	cfg.RecordedFailures = 1
	cfg.HiddenFailures = 0
	fleet := NewFleet(cfg)
	vehicle := fleet.AllVehicleIDs()[0]

	cases := []struct {
		name string
		mk   func(names []string) Detector
		th   func() Thresholder
	}{
		{"closest-pair", func(n []string) Detector { return NewClosestPair(n) },
			func() Thresholder { return NewSelfTuningThreshold(8) }},
		{"grand", func(n []string) Detector { return grand.New(grand.Config{Measure: grand.KNN}) },
			func() Thresholder { return thresholds.NewConstant(0.95) }},
		{"tranad", func(n []string) Detector { return tranad.New(tranad.Config{Epochs: 2, MaxWindows: 64}) },
			func() Thresholder { return NewSelfTuningThreshold(8) }},
		{"xgboost", func(n []string) Detector { return NewXGBoost(n, GBTConfig{NumTrees: 10, MaxDepth: 3}) },
			func() Thresholder { return NewSelfTuningThreshold(8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			makeCfg := func() PipelineConfig {
				tr, err := NewTransformer(Correlation, 12)
				if err != nil {
					t.Fatal(err)
				}
				return PipelineConfig{
					Transformer:   tr,
					Detector:      tc.mk(tr.FeatureNames()),
					Thresholder:   tc.th(),
					ProfileLength: 25,
				}
			}
			alarms, err := RunVehicle(vehicle, fleet.Records, fleet.Events, makeCfg)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, a := range alarms {
				if a.VehicleID != vehicle {
					t.Fatalf("%s: alarm for wrong vehicle", tc.name)
				}
				if a.Time.IsZero() {
					t.Fatalf("%s: alarm without timestamp", tc.name)
				}
			}
		})
	}
}

// TestPaperScaleGeneration checks the paper-scale dataset statistics end
// to end through the public API (matches the proprietary dataset's
// documented shape). Skipped in -short mode.
func TestPaperScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short mode")
	}
	fleet := NewFleet(fleetsim.DefaultConfig())
	if n := len(fleet.Records); n < 1_000_000 {
		t.Errorf("paper-scale fleet has %d records, want ≥1M", n)
	}
	failures := 0
	for _, ev := range fleet.Events {
		if ev.Type == EventRepair {
			failures++
		}
	}
	if failures != 9 {
		t.Errorf("recorded failures = %d, want 9 (the paper's count)", failures)
	}
	if got := len(fleet.EventVehicleIDs()); got < 20 {
		t.Errorf("vehicles with events = %d, want ≈26", got)
	}
	// The evaluation protocol runs on it.
	m := Evaluate(nil, fleet.Events, 30*24*time.Hour)
	if m.TotalFailures != failures {
		t.Errorf("Evaluate sees %d failures, want %d", m.TotalFailures, failures)
	}
}
