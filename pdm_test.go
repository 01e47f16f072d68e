package pdm

import (
	"testing"
	"time"
)

// TestEndToEndDefaultPipeline exercises the public API exactly as the
// README's quick start does: generate a small fleet, run the default
// pipeline over a failing vehicle, and check the alarms make sense.
func TestEndToEndDefaultPipeline(t *testing.T) {
	fleet := NewFleet(SmallFleetConfig())
	if len(fleet.Records) == 0 || len(fleet.Events) == 0 {
		t.Fatal("fleet generation produced no data")
	}

	// Pick a vehicle with a recorded failure.
	var target string
	var failAt time.Time
	for _, ev := range fleet.Events {
		if ev.Type == EventRepair {
			target = ev.VehicleID
			failAt = ev.Time
			break
		}
	}
	if target == "" {
		t.Fatal("no recorded failures in small fleet")
	}

	p, err := NewDefaultPipeline(target)
	if err != nil {
		t.Fatal(err)
	}
	var alarms []Alarm
	evIdx := 0
	for _, rec := range fleet.Records {
		for evIdx < len(fleet.Events) && !fleet.Events[evIdx].Time.After(rec.Time) {
			p.HandleEvent(fleet.Events[evIdx])
			evIdx++
		}
		a, err := p.HandleRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		alarms = append(alarms, a...)
	}
	for _, a := range alarms {
		if a.VehicleID != target {
			t.Fatalf("alarm for wrong vehicle: %+v", a)
		}
		if a.Feature == "" {
			t.Error("alarm lacks feature explanation")
		}
	}

	// Metric plumbing via the public API.
	m := Evaluate(ConsolidateDaily(alarms), fleet.Events, 30*24*time.Hour)
	if m.TotalFailures < 1 {
		t.Fatalf("evaluation found no failures: %+v", m)
	}
	_ = failAt
}

// TestPublicConstructors ensures every exported constructor produces a
// working component.
func TestPublicConstructors(t *testing.T) {
	for _, kind := range []TransformKind{Correlation, Raw, Delta, MeanAgg} {
		tr, err := NewTransformer(kind, 10)
		if err != nil {
			t.Fatalf("NewTransformer(%v): %v", kind, err)
		}
		if tr.Dim() <= 0 {
			t.Errorf("%v: non-positive dim", kind)
		}
	}
	names := []string{"a", "b", "c"}
	ref := [][]float64{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1.5, 2.5, 3.5}}
	dets := []Detector{
		NewClosestPair(names),
		NewXGBoost(names, GBTConfig{NumTrees: 5}),
	}
	for _, d := range dets {
		if err := d.Fit(ref); err != nil {
			t.Fatalf("%s: Fit: %v", d.Name(), err)
		}
		s, err := d.Score([]float64{1, 2, 3})
		if err != nil {
			t.Fatalf("%s: Score: %v", d.Name(), err)
		}
		if len(s) != d.Channels() {
			t.Errorf("%s: %d scores for %d channels", d.Name(), len(s), d.Channels())
		}
	}
	if th := NewSelfTuningThreshold(3); th == nil {
		t.Fatal("nil self-tuning threshold")
	}
}

// TestRunVehicleHelper checks the batch driver on the public surface.
func TestRunVehicleHelper(t *testing.T) {
	fleet := NewFleet(SmallFleetConfig())
	vehicle := fleet.AllVehicleIDs()[0]
	makeCfg := func() PipelineConfig {
		tr, _ := NewTransformer(Correlation, 12)
		return PipelineConfig{
			Transformer:   tr,
			Detector:      NewClosestPair(tr.FeatureNames()),
			Thresholder:   NewSelfTuningThreshold(10),
			ProfileLength: 30,
		}
	}
	alarms, err := RunVehicle(vehicle, fleet.Records, fleet.Events, makeCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range alarms {
		if a.VehicleID != vehicle {
			t.Fatal("alarm for wrong vehicle")
		}
	}
}
