package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/detector/closestpair"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/thresholds"
	"github.com/navarchos/pdm/internal/timeseries"
	"github.com/navarchos/pdm/internal/transform"
)

var t0 = time.Date(2023, 2, 1, 8, 0, 0, 0, time.UTC)

// healthyRecord produces a driving record whose rpm/speed/MAF move
// together; x parametrises the operating point.
func healthyRecord(i int, x float64, rng *rand.Rand) timeseries.Record {
	var v [obd.NumPIDs]float64
	v[obd.EngineRPM] = 1500 + 400*x + 20*rng.NormFloat64()
	v[obd.Speed] = 40 + 12*x + 1.5*rng.NormFloat64()
	v[obd.CoolantTemp] = 88 + 0.8*rng.NormFloat64()
	v[obd.IntakeTemp] = 25 + rng.NormFloat64()
	v[obd.MAPIntake] = 60 + 8*x + 2*rng.NormFloat64()
	v[obd.MAFAirFlowRate] = 15 + 4*x + 0.5*rng.NormFloat64()
	return timeseries.Record{VehicleID: "v1", Time: t0.Add(time.Duration(i) * time.Minute), Values: v}
}

// faultyRecord breaks the coolant regulation: coolant tracks speed.
func faultyRecord(i int, x float64, rng *rand.Rand) timeseries.Record {
	r := healthyRecord(i, x, rng)
	r.Values[obd.CoolantTemp] = 50 + 0.5*r.Values[obd.Speed] + rng.NormFloat64()
	return r
}

func testConfig(window, profile int) Config {
	tr, _ := transform.New(transform.Correlation, window)
	return Config{
		Transformer:   tr,
		Detector:      closestpair.New(tr.FeatureNames()),
		Thresholder:   thresholds.NewSelfTuning(4),
		ProfileLength: profile,
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewPipeline("v1", Config{}); err == nil {
		t.Error("missing components should error")
	}
	cfg := testConfig(10, 20)
	p, err := NewPipeline("v1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.State() != StateCollecting || p.VehicleID() != "v1" {
		t.Error("fresh pipeline state wrong")
	}
}

func TestStringers(t *testing.T) {
	if ResetOnAllEvents.String() != "reset-on-all-events" ||
		ResetOnRepairsOnly.String() != "reset-on-repairs-only" ||
		ResetPolicy(9).String() == "" {
		t.Error("ResetPolicy strings wrong")
	}
	if StateCollecting.String() != "collecting" || StateDetecting.String() != "detecting" || State(9).String() == "" {
		t.Error("State strings wrong")
	}
}

func TestFillFitDetectCycle(t *testing.T) {
	p, err := NewPipeline("v1", testConfig(10, 12))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// 12 transformed samples need 120 records; feed healthy data.
	i := 0
	for p.State() == StateCollecting && i < 200 {
		if _, err := p.HandleRecord(healthyRecord(i, rng.Float64()*2, rng)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	if p.State() != StateDetecting {
		t.Fatalf("pipeline never reached detecting state after %d records", i)
	}
	if p.RefLen() != 12 {
		t.Errorf("RefLen = %d, want 12", p.RefLen())
	}
	// Healthy continuation: no (or very few) alarms.
	healthyAlarms := 0
	for j := 0; j < 400; j++ {
		a, err := p.HandleRecord(healthyRecord(i+j, rng.Float64()*2, rng))
		if err != nil {
			t.Fatal(err)
		}
		healthyAlarms += len(a)
	}
	// Faulty continuation: correlation break must raise alarms.
	faultyAlarms := 0
	var gotFeature string
	for j := 0; j < 400; j++ {
		a, err := p.HandleRecord(faultyRecord(i+400+j, rng.Float64()*2, rng))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) > 0 && gotFeature == "" {
			gotFeature = a[0].Feature
		}
		faultyAlarms += len(a)
	}
	if faultyAlarms == 0 {
		t.Fatal("no alarms on faulty data")
	}
	if healthyAlarms >= faultyAlarms {
		t.Errorf("healthy alarms (%d) >= faulty alarms (%d)", healthyAlarms, faultyAlarms)
	}
	if gotFeature == "" {
		t.Error("alarms lack feature explanation")
	}
}

func TestEventResetPolicies(t *testing.T) {
	service := obd.Event{VehicleID: "v1", Time: t0, Type: obd.EventService}
	repair := obd.Event{VehicleID: "v1", Time: t0, Type: obd.EventRepair}
	dtc := obd.Event{VehicleID: "v1", Time: t0, Type: obd.EventDTC}
	otherVehicle := obd.Event{VehicleID: "v2", Time: t0, Type: obd.EventRepair}

	fill := func(p *Pipeline) {
		rng := rand.New(rand.NewSource(2))
		for i := 0; p.State() == StateCollecting && i < 300; i++ {
			p.HandleRecord(healthyRecord(i, rng.Float64(), rng))
		}
	}

	// Default policy: service resets.
	p, _ := NewPipeline("v1", testConfig(10, 10))
	fill(p)
	if p.State() != StateDetecting {
		t.Fatal("fill failed")
	}
	p.HandleEvent(service)
	if p.State() != StateCollecting || p.RefLen() != 0 {
		t.Error("service should reset under default policy")
	}
	fill(p)
	p.HandleEvent(dtc)
	if p.State() != StateDetecting {
		t.Error("DTC must not reset")
	}
	p.HandleEvent(otherVehicle)
	if p.State() != StateDetecting {
		t.Error("other vehicle's event must not reset")
	}

	// Repairs-only policy: service ignored, repair resets.
	cfg := testConfig(10, 10)
	cfg.ResetPolicy = ResetOnRepairsOnly
	p2, _ := NewPipeline("v1", cfg)
	fill(p2)
	p2.HandleEvent(service)
	if p2.State() != StateDetecting {
		t.Error("service must not reset under repairs-only policy")
	}
	p2.HandleEvent(repair)
	if p2.State() != StateCollecting {
		t.Error("repair should reset under repairs-only policy")
	}
}

func TestStationaryRecordsFiltered(t *testing.T) {
	p, _ := NewPipeline("v1", testConfig(5, 5))
	var idle timeseries.Record
	idle.VehicleID = "v1"
	idle.Time = t0
	idle.Values[obd.EngineRPM] = 800
	idle.Values[obd.CoolantTemp] = 85
	idle.Values[obd.IntakeTemp] = 25
	idle.Values[obd.MAPIntake] = 35
	idle.Values[obd.MAFAirFlowRate] = 3
	for i := 0; i < 100; i++ {
		p.HandleRecord(idle)
	}
	if p.RefLen() != 0 {
		t.Error("stationary records must not reach the transformer")
	}
}

func TestTraceRecording(t *testing.T) {
	cfg := testConfig(10, 10)
	tr := &Trace{}
	cfg.Trace = tr
	p, _ := NewPipeline("v1", cfg)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		p.HandleRecord(healthyRecord(i, rng.Float64(), rng))
	}
	if len(tr.Times) == 0 {
		t.Fatal("trace recorded nothing")
	}
	if len(tr.Scores) != len(tr.Times) || len(tr.Thresholds) != len(tr.Times) || len(tr.Alarmed) != len(tr.Times) {
		t.Error("trace slices out of sync")
	}
	p.HandleEvent(obd.Event{VehicleID: "v1", Time: t0, Type: obd.EventService})
	if len(tr.Resets) != 1 {
		t.Error("reset not traced")
	}
}

func TestRunVehicleMergesStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var records []timeseries.Record
	for i := 0; i < 500; i++ {
		records = append(records, healthyRecord(i, rng.Float64(), rng))
	}
	// After minute 250 the vehicle degrades; a repair event at minute
	// 400 resets the profile.
	for i := 250; i < 500; i++ {
		records[i] = faultyRecord(i, rng.Float64(), rng)
	}
	events := []obd.Event{
		{VehicleID: "v1", Time: t0.Add(400 * time.Minute), Type: obd.EventRepair},
		{VehicleID: "v2", Time: t0.Add(10 * time.Minute), Type: obd.EventRepair},
	}
	alarms, err := RunVehicle("v1", records, events, func() Config { return testConfig(10, 10) })
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("expected alarms on degraded stretch")
	}
	// All alarms belong to v1 and carry timestamps.
	for _, a := range alarms {
		if a.VehicleID != "v1" || a.Time.IsZero() {
			t.Errorf("bad alarm: %+v", a)
		}
	}
	// Alarms should fall inside the degraded window (before repair) —
	// after the reset the pipeline is collecting again.
	for _, a := range alarms {
		if a.Time.After(t0.Add(400 * time.Minute)) {
			t.Errorf("alarm after repair at %v: profile should be rebuilding", a.Time)
		}
	}
}

// TestHandleRecordAlarmsCallerOwned: the alarms HandleRecord returns
// belong to the caller. A kept slice must survive a later alarming
// HandleRecord and a LandFit whose drain raises alarms of its own.
func TestHandleRecordAlarmsCallerOwned(t *testing.T) {
	p, err := NewPipeline("v1", testConfig(10, 12))
	if err != nil {
		t.Fatal(err)
	}
	p.SetDeferFits(true)
	rng := rand.New(rand.NewSource(5))
	i := 0
	feed := func(rec func(int, float64, *rand.Rand) timeseries.Record) []detector.Alarm {
		a, err := p.HandleRecord(rec(i, rng.Float64()*2, rng))
		if err != nil {
			t.Fatal(err)
		}
		i++
		return a
	}
	land := func(fit func() error) []detector.Alarm {
		if err := fit(); err != nil {
			t.Fatal(err)
		}
		a, err := p.LandFit()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for p.State() != StateDetecting {
		feed(healthyRecord)
		if fit := p.TakePendingFit(); fit != nil {
			land(fit)
		}
	}
	var kept []detector.Alarm
	for len(kept) == 0 && i < 2000 {
		kept = feed(faultyRecord)
	}
	want := slices.Clone(kept)
	alarmed := false
	for !alarmed && i < 4000 {
		alarmed = len(feed(faultyRecord)) > 0
	}
	if len(want) == 0 || !alarmed {
		t.Fatal("faulty records raised too few alarms")
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatal("an alarming HandleRecord overwrote an earlier call's alarms")
	}

	// Refill behind a reset, then queue faulty records behind the fit.
	p.HandleEvent(obd.Event{VehicleID: "v1", Time: t0.Add(time.Duration(i) * time.Minute), Type: obd.EventService})
	var fit func() error
	for fit == nil {
		feed(healthyRecord)
		fit = p.TakePendingFit()
	}
	for k := 0; k < 300; k++ {
		feed(faultyRecord)
	}
	if len(land(fit)) == 0 {
		t.Fatal("the landed fit's drain raised no alarms")
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatal("LandFit overwrote alarms HandleRecord returned")
	}
}
