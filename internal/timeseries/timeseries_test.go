package timeseries

import (
	"math"
	"testing"
	"time"

	"github.com/navarchos/pdm/internal/obd"
)

func mkRecord(vehicle string, t time.Time, rpm, speed, coolant, intake, mapv, maf float64) Record {
	var r Record
	r.VehicleID = vehicle
	r.Time = t
	r.Values[obd.EngineRPM] = rpm
	r.Values[obd.Speed] = speed
	r.Values[obd.CoolantTemp] = coolant
	r.Values[obd.IntakeTemp] = intake
	r.Values[obd.MAPIntake] = mapv
	r.Values[obd.MAFAirFlowRate] = maf
	return r
}

var t0 = time.Date(2023, 1, 1, 8, 0, 0, 0, time.UTC)

func drivingRecord(vehicle string, t time.Time) Record {
	return mkRecord(vehicle, t, 2200, 60, 88, 25, 100, 20)
}

func TestRecordAccessors(t *testing.T) {
	r := drivingRecord("v1", t0)
	if r.Value(obd.Speed) != 60 {
		t.Errorf("Value(Speed) = %v", r.Value(obd.Speed))
	}
	s := r.Slice()
	if len(s) != int(obd.NumPIDs) || s[0] != 2200 {
		t.Errorf("Slice = %v", s)
	}
	s[0] = 0
	if r.Values[0] == 0 {
		t.Error("Slice must copy")
	}
}

func TestStationaryAndFaultFilters(t *testing.T) {
	driving := drivingRecord("v1", t0)
	if driving.IsStationary() {
		t.Error("driving record flagged stationary")
	}
	idle := mkRecord("v1", t0, 800, 0, 85, 25, 35, 3)
	if !idle.IsStationary() {
		t.Error("idle record not flagged stationary")
	}
	if driving.HasSensorFault() {
		t.Error("clean record flagged faulty")
	}
	bad := driving
	bad.Values[obd.CoolantTemp] = -40
	if !bad.HasSensorFault() {
		t.Error("-40C coolant not flagged as sensor fault")
	}
	if !CleanFilter(&driving) || CleanFilter(&idle) || CleanFilter(&bad) {
		t.Error("CleanFilter decisions wrong")
	}
}

func TestFilterRecords(t *testing.T) {
	recs := []Record{
		drivingRecord("v1", t0),
		mkRecord("v1", t0.Add(time.Minute), 700, 0, 85, 25, 35, 3), // idle
		drivingRecord("v1", t0.Add(2*time.Minute)),
	}
	kept := FilterRecords(recs, CleanFilter)
	if len(kept) != 2 {
		t.Errorf("kept %d records, want 2", len(kept))
	}
	all := FilterRecords(recs, nil)
	if len(all) != 3 {
		t.Errorf("nil filter kept %d, want 3", len(all))
	}
	all[0].VehicleID = "changed"
	if recs[0].VehicleID == "changed" {
		t.Error("FilterRecords must copy")
	}
}

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Full() || w.Len() != 0 {
		t.Error("fresh window should be empty")
	}
	for i := 0; i < 2; i++ {
		w.Push(drivingRecord("v1", t0.Add(time.Duration(i)*time.Minute)))
	}
	if w.Full() || w.Len() != 2 {
		t.Errorf("Len = %d Full = %v", w.Len(), w.Full())
	}
	w.Push(drivingRecord("v1", t0.Add(2*time.Minute)))
	if !w.Full() || w.Len() != 3 {
		t.Error("window should be full after 3 pushes")
	}
	// Fourth push evicts the oldest.
	w.Push(drivingRecord("v1", t0.Add(3*time.Minute)))
	recs := w.Records()
	if len(recs) != 3 {
		t.Fatalf("Records len = %d", len(recs))
	}
	if !recs[0].Time.Equal(t0.Add(time.Minute)) {
		t.Errorf("oldest record time = %v, want %v", recs[0].Time, t0.Add(time.Minute))
	}
	if !recs[2].Time.Equal(t0.Add(3 * time.Minute)) {
		t.Errorf("newest record time = %v", recs[2].Time)
	}
	w.Reset()
	if w.Len() != 0 || w.Full() {
		t.Error("Reset should empty the window")
	}
}

func TestWindowColumnOrdering(t *testing.T) {
	w := NewWindow(3)
	for i := 0; i < 5; i++ {
		r := drivingRecord("v1", t0.Add(time.Duration(i)*time.Minute))
		r.Values[obd.Speed] = float64(i)
		w.Push(r)
	}
	want := []float64{2, 3, 4}
	cols := w.Columns()
	if len(cols) != int(obd.NumPIDs) {
		t.Fatalf("Columns len = %d", len(cols))
	}
	for i := range want {
		if cols[obd.Speed][i] != want[i] {
			t.Errorf("Columns[Speed][%d] = %v", i, cols[obd.Speed][i])
		}
	}
	// Partial window column.
	w2 := NewWindow(5)
	w2.Push(drivingRecord("v1", t0))
	if len(w2.Columns()[obd.Speed]) != 1 {
		t.Error("partial window column length wrong")
	}
}

func TestNewWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) should panic")
		}
	}()
	NewWindow(0)
}

func TestAggregateDaily(t *testing.T) {
	day1 := time.Date(2023, 5, 1, 9, 0, 0, 0, time.UTC)
	day2 := time.Date(2023, 5, 2, 9, 0, 0, 0, time.UTC)
	var recs []Record
	// v1 day1: speeds 40, 60 -> mean 50, std 10.
	r := drivingRecord("v1", day1)
	r.Values[obd.Speed] = 40
	recs = append(recs, r)
	r = drivingRecord("v1", day1.Add(time.Minute))
	r.Values[obd.Speed] = 60
	recs = append(recs, r)
	// v1 day2: single record (dropped with minRecords=2).
	recs = append(recs, drivingRecord("v1", day2))
	// v2 day1: two identical records.
	recs = append(recs, drivingRecord("v2", day1), drivingRecord("v2", day1.Add(time.Minute)))

	aggs := AggregateDaily(recs, 2)
	if len(aggs) != 2 {
		t.Fatalf("got %d aggregates, want 2", len(aggs))
	}
	// Sorted by vehicle then date: v1/day1 first.
	a := aggs[0]
	if a.VehicleID != "v1" || a.Count != 2 {
		t.Errorf("first aggregate = %+v", a)
	}
	if a.Means[obd.Speed] != 50 || a.Stds[obd.Speed] != 10 {
		t.Errorf("speed mean/std = %v/%v, want 50/10", a.Means[obd.Speed], a.Stds[obd.Speed])
	}
	fv := a.FeatureVector()
	if len(fv) != 12 {
		t.Fatalf("feature vector len = %d, want 12", len(fv))
	}
	if fv[int(obd.Speed)] != 50 || fv[int(obd.NumPIDs)+int(obd.Speed)] != 10 {
		t.Errorf("feature vector layout wrong: %v", fv)
	}
	b := aggs[1]
	if b.VehicleID != "v2" {
		t.Errorf("second aggregate vehicle = %s", b.VehicleID)
	}
	for p := 0; p < int(obd.NumPIDs); p++ {
		if b.Stds[p] != 0 {
			t.Errorf("identical records should have zero std, got %v", b.Stds[p])
		}
		if math.IsNaN(b.Means[p]) {
			t.Error("mean should not be NaN")
		}
	}
}

func TestSplitByVehicle(t *testing.T) {
	recs := []Record{
		drivingRecord("a", t0),
		drivingRecord("b", t0),
		drivingRecord("a", t0.Add(time.Minute)),
	}
	m := SplitByVehicle(recs)
	if len(m) != 2 || len(m["a"]) != 2 || len(m["b"]) != 1 {
		t.Errorf("split = %v", m)
	}
	if !m["a"][0].Time.Before(m["a"][1].Time) {
		t.Error("order not preserved")
	}
}
