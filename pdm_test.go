package pdm

import (
	"math"
	"testing"
	"time"
)

// TestEndToEndDefaultPipeline exercises the public API as the README's
// quick start does: generate a small fleet, stream the first vehicle
// with a recorded failure through the default pipeline, and check that
// its alarms make sense, equal RunVehicle's bit for bit, and score
// against the vehicle's own events.
func TestEndToEndDefaultPipeline(t *testing.T) {
	fleet := NewFleet(SmallFleetConfig())
	if len(fleet.Records) == 0 || len(fleet.Events) == 0 {
		t.Fatal("fleet generation produced no data")
	}

	// The first vehicle with a recorded failure, and its events.
	var target string
	var failAt time.Time
	for _, ev := range fleet.Events {
		if ev.Type == EventRepair {
			target, failAt = ev.VehicleID, ev.Time
			break
		}
	}
	if target == "" {
		t.Fatal("no recorded failures in small fleet")
	}
	var events []Event
	for _, ev := range fleet.Events {
		if ev.VehicleID == target {
			events = append(events, ev)
		}
	}

	p, err := NewDefaultPipeline(target)
	if err != nil {
		t.Fatal(err)
	}
	var alarms []Alarm
	evIdx := 0
	for _, rec := range fleet.Records {
		for evIdx < len(events) && !events[evIdx].Time.After(rec.Time) {
			p.HandleEvent(events[evIdx])
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

	batch, err := RunVehicle(target, fleet.Records, fleet.Events, func() PipelineConfig {
		cfg, err := DefaultPipelineConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(alarms) {
		t.Fatalf("RunVehicle raised %d alarms, the streaming loop %d", len(batch), len(alarms))
	}
	for i, a := range alarms {
		b := batch[i]
		if a.VehicleID != b.VehicleID || !a.Time.Equal(b.Time) || a.Channel != b.Channel || a.Feature != b.Feature ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) || math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
			t.Fatalf("alarm %d: RunVehicle %+v, streaming loop %+v", i, b, a)
		}
	}

	// Metric plumbing via the public API: the first alarm falls inside
	// the prediction horizon before the failure, which counts as caught.
	const ph = 30 * 24 * time.Hour
	if len(alarms) == 0 || !alarms[0].Time.Before(failAt) || alarms[0].Time.Before(failAt.Add(-ph)) {
		t.Fatalf("%s failed at %s; want its first alarm within %s before, got %d alarms", target, failAt, ph, len(alarms))
	}
	repairs := 0
	for _, ev := range events {
		if ev.Type == EventRepair {
			repairs++
		}
	}
	m := Evaluate(ConsolidateDaily(alarms), events, ph)
	if m.TotalFailures != repairs || m.TP < 1 {
		t.Fatalf("Evaluate = %+v, want %d failures with at least one caught", m, repairs)
	}
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
