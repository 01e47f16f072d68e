package fleetsim

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/navarchos/pdm/internal/mat"
	"github.com/navarchos/pdm/internal/obd"
	"github.com/navarchos/pdm/internal/timeseries"
)

func TestGenerateSmallBasics(t *testing.T) {
	f := Generate(SmallConfig())
	if len(f.Vehicles) != 8 {
		t.Fatalf("vehicles = %d", len(f.Vehicles))
	}
	if len(f.Records) == 0 {
		t.Fatal("no records generated")
	}
	// Chronological order.
	for i := 1; i < len(f.Records); i++ {
		if f.Records[i].Time.Before(f.Records[i-1].Time) {
			t.Fatal("records not sorted by time")
		}
	}
	// All PID values inside physical envelopes.
	for i := range f.Records {
		r := &f.Records[i]
		for p := obd.PID(0); p < obd.NumPIDs; p++ {
			if !obd.InEnvelope(p, r.Values[p]) {
				t.Fatalf("record %d PID %s = %v outside envelope", i, p, r.Values[p])
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
	sameEvent := func(x, y obd.Event) bool {
		if (x.DTC == nil) != (y.DTC == nil) || x.DTC != nil && *x.DTC != *y.DTC {
			return false
		}
		x.DTC, y.DTC = nil, nil
		return x == y
	}
	if !slices.EqualFunc(a.Events, b.Events, sameEvent) {
		t.Fatal("events differ between runs")
	}
	if !slices.EqualFunc(a.HiddenEvents, b.HiddenEvents, sameEvent) {
		t.Fatal("hidden events differ between runs")
	}
	c := SmallConfig()
	c.Seed = 999
	d := Generate(c)
	if len(d.Records) == len(a.Records) {
		same := true
		for i := range d.Records {
			if d.Records[i] != a.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical fleets")
		}
	}
}

func TestGenerateFailuresAndRecording(t *testing.T) {
	cfg := SmallConfig()
	f := Generate(cfg)
	failures := repairs(f.Events)
	if len(failures) != cfg.RecordedFailures {
		t.Fatalf("recorded failures = %d, want %d", len(failures), cfg.RecordedFailures)
	}
	// Each recorded failure is on a distinct recorded vehicle.
	byID := map[string]*Vehicle{}
	for i := range f.Vehicles {
		byID[f.Vehicles[i].ID] = &f.Vehicles[i]
	}
	seen := map[string]bool{}
	for _, ev := range failures {
		if seen[ev.VehicleID] {
			t.Errorf("vehicle %s has two recorded failures", ev.VehicleID)
		}
		seen[ev.VehicleID] = true
		v := byID[ev.VehicleID]
		if v == nil || !v.Recorded {
			t.Fatalf("failure on unrecorded/unknown vehicle %s", ev.VehicleID)
		}
		if v.Fault == FaultNone {
			t.Errorf("failing vehicle %s has no fault", ev.VehicleID)
		}
	}
	// No service/repair events recorded on unrecorded vehicles.
	for _, ev := range f.Events {
		if ev.Type != obd.EventDTC && !byID[ev.VehicleID].Recorded {
			t.Errorf("maintenance event recorded for unrecorded vehicle %s", ev.VehicleID)
		}
	}
	// Hidden events must be a superset of recorded maintenance events.
	if len(f.HiddenEvents) <= len(f.Events)-countDTC(f.Events) {
		t.Error("hidden events should include unrecorded maintenance")
	}
	// setting26 universe: non-empty subset of recorded vehicles.
	ev26 := f.EventVehicleIDs()
	if len(ev26) == 0 || len(ev26) > cfg.RecordedVehicles {
		t.Errorf("EventVehicleIDs = %d vehicles", len(ev26))
	}
	if got := len(f.AllVehicleIDs()); got != cfg.NumVehicles {
		t.Errorf("AllVehicleIDs = %d", got)
	}
}

// repairs returns the recorded repair events — the failures the
// evaluation scores against.
func repairs(events []obd.Event) []obd.Event {
	var out []obd.Event
	for _, ev := range events {
		if ev.Type == obd.EventRepair {
			out = append(out, ev)
		}
	}
	return out
}

func countDTC(events []obd.Event) int {
	n := 0
	for _, ev := range events {
		if ev.Type == obd.EventDTC {
			n++
		}
	}
	return n
}

// TestFaultChangesCorrelationNotJustLevel is the core scientific
// property of the simulator: during late degradation the cross-signal
// correlation structure changes markedly relative to healthy operation
// of the SAME vehicle under the SAME usage, mirroring the paper's
// observation that failures are visible in correlation space.
func TestFaultChangesCorrelationNotJustLevel(t *testing.T) {
	cfg := SmallConfig()
	f := Generate(cfg)
	// Find a vehicle with a thermostat or head-gasket fault (coolant
	// coupling faults are the starkest).
	var target *Vehicle
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		if v.FailureDay >= 0 && (v.Fault == FaultThermostat || v.Fault == FaultHeadGasket || v.Fault == FaultMAFDrift) {
			target = v
			break
		}
	}
	if target == nil {
		t.Fatal("no suitable failing vehicle in small fleet")
	}
	byVehicle := timeseries.SplitByVehicle(f.Records)
	recs := timeseries.FilterRecords(byVehicle[target.ID], timeseries.CleanFilter)
	failT := f.dayTime(target.FailureDay, 19)
	degT := f.dayTime(target.FailureDay-target.DegradeDays, 0)
	var healthy, degraded []timeseries.Record
	for _, r := range recs {
		switch {
		case r.Time.Before(degT):
			healthy = append(healthy, r)
		case r.Time.After(degT.AddDate(0, 0, target.DegradeDays*3/4)) && r.Time.Before(failT):
			degraded = append(degraded, r)
		}
	}
	if len(healthy) < 500 || len(degraded) < 100 {
		t.Fatalf("not enough data: healthy=%d degraded=%d", len(healthy), len(degraded))
	}
	corrVec := func(rs []timeseries.Record) []float64 {
		rows := make([][]float64, len(rs))
		for i := range rs {
			rows[i] = rs[i].Slice()
		}
		m, err := mat.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := m.CorrelationMatrix()
		if err != nil {
			t.Fatal(err)
		}
		ut, err := cm.UpperTriangle()
		if err != nil {
			t.Fatal(err)
		}
		return ut
	}
	ch := corrVec(healthy)
	cd := corrVec(degraded)
	dist, err := mat.Euclidean(ch, cd)
	if err != nil {
		t.Fatal(err)
	}
	if dist < 0.25 {
		t.Errorf("correlation shift between healthy and degraded = %.3f, want noticeable (>= 0.25); fault=%v", dist, target.Fault)
	}

	// Control: a healthy vehicle split into two halves must show a much
	// smaller correlation shift.
	var control *Vehicle
	for i := range f.Vehicles {
		v := &f.Vehicles[i]
		if v.FailureDay < 0 && v.DriftDay < 0 {
			control = v
			break
		}
	}
	if control == nil {
		t.Fatal("no healthy control vehicle")
	}
	crecs := timeseries.FilterRecords(byVehicle[control.ID], timeseries.CleanFilter)
	half := len(crecs) / 2
	c1 := corrVec(crecs[:half])
	c2 := corrVec(crecs[half:])
	cdist, _ := mat.Euclidean(c1, c2)
	if cdist >= dist {
		t.Errorf("healthy control correlation shift (%.3f) not smaller than fault shift (%.3f)", cdist, dist)
	}
}

func TestSeverityRamp(t *testing.T) {
	v := Vehicle{Fault: FaultThermostat, FailureDay: 100, DegradeDays: 20}
	if v.severity(79) != 0 {
		t.Error("severity before window should be 0")
	}
	// Concave ramp: severity at mid-window is (0.5)^0.75 ≈ 0.59.
	if got := v.severity(90); !(got > 0.55 && got < 0.65) {
		t.Errorf("mid-window severity = %v", got)
	}
	// Monotone non-decreasing across the window.
	prev := 0.0
	for d := 80; d <= 100; d++ {
		s := v.severity(d)
		if s < prev {
			t.Errorf("severity not monotone at day %d: %v < %v", d, s, prev)
		}
		prev = s
	}
	if v.severity(100) != 1 {
		t.Errorf("failure-day severity = %v, want 1", v.severity(100))
	}
	if v.severity(101) != 0 {
		t.Error("severity after repair should be 0")
	}
	h := Vehicle{Fault: FaultNone, FailureDay: -1}
	if h.severity(50) != 0 {
		t.Error("healthy vehicle severity should be 0")
	}
}

func TestDTCPatterns(t *testing.T) {
	f := Generate(SmallConfig())
	var failing []*Vehicle
	for i := range f.Vehicles {
		if f.Vehicles[i].Recorded && f.Vehicles[i].FailureDay >= 0 {
			failing = append(failing, &f.Vehicles[i])
		}
	}
	if len(failing) == 0 {
		t.Skip("no recorded failing vehicles")
	}
	// Vehicle-1 pattern: DTCs after repair only.
	v := failing[0]
	failT := f.dayTime(v.FailureDay, 19)
	for _, ev := range f.Events {
		if ev.VehicleID == v.ID && ev.Type == obd.EventDTC && ev.Time.Before(failT) {
			t.Errorf("pattern-1 vehicle %s has a DTC before its failure", v.ID)
		}
	}
	after := 0
	for _, ev := range f.Events {
		if ev.VehicleID == v.ID && ev.Type == obd.EventDTC && ev.Time.After(failT) {
			after++
		}
	}
	if after == 0 {
		t.Errorf("pattern-1 vehicle %s should emit DTCs after repair", v.ID)
	}
	// Vehicles 2/3 pattern: no DTCs at all.
	if len(failing) > 2 {
		for _, vv := range failing[1:3] {
			for _, ev := range f.Events {
				if ev.VehicleID == vv.ID && ev.Type == obd.EventDTC {
					t.Errorf("pattern-2/3 vehicle %s should have no DTCs", vv.ID)
				}
			}
		}
	}
}

func TestStringers(t *testing.T) {
	if FaultThermostat.String() == "" || FaultKind(99).String() == "" {
		t.Error("FaultKind.String broken")
	}
	if RideUrban.String() != "urban" || RideType(99).String() == "" {
		t.Error("RideType.String broken")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 40
	cfg.NumVehicles = 2
	cfg.RecordedVehicles = 2
	cfg.RecordedFailures = 1
	cfg.HiddenFailures = 0
	f := Generate(cfg)

	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, f.Records[:200]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecordsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 200 {
		t.Fatalf("round-tripped %d records, want 200", len(got))
	}
	for i := range got {
		if got[i].VehicleID != f.Records[i].VehicleID || !got[i].Time.Equal(f.Records[i].Time) {
			t.Fatalf("record %d identity mismatch", i)
		}
		for p := 0; p < int(obd.NumPIDs); p++ {
			d := got[i].Values[p] - f.Records[i].Values[p]
			if d > 0.001 || d < -0.001 {
				t.Fatalf("record %d PID %d: %v vs %v", i, p, got[i].Values[p], f.Records[i].Values[p])
			}
		}
	}

	buf.Reset()
	if err := WriteEventsCSV(&buf, f.Events); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(f.Events) {
		t.Fatalf("round-tripped %d events, want %d", len(evs), len(f.Events))
	}
	for i := range evs {
		if evs[i].VehicleID != f.Events[i].VehicleID || evs[i].Type != f.Events[i].Type || !evs[i].Time.Equal(f.Events[i].Time) {
			t.Fatalf("event %d mismatch: %v vs %v", i, evs[i], f.Events[i])
		}
	}
}

// TestEventsCSVKeepsDTCs: every DTC survives the events file whatever
// its code's length (a fixed-width scan would cut a longer code short
// and swallow the separator of a shorter one), and a kind the writer
// never emits is an error naming its row.
func TestEventsCSVKeepsDTCs(t *testing.T) {
	ts := time.Date(2023, 5, 1, 9, 0, 0, 0, time.UTC)
	var want []obd.Event
	dtcs := append(obd.KnownDTCs(),
		obd.DTC{Code: "P01", Kind: obd.DTCStored},
		obd.DTC{Code: "U0100-A7", Kind: obd.DTCStored})
	for i := range dtcs {
		want = append(want, obd.Event{VehicleID: "veh-01", Time: ts.Add(time.Duration(i) * time.Hour),
			Type: obd.EventDTC, DTC: &dtcs[i]})
	}
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEventsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].DTC == nil || *got[i].DTC != *want[i].DTC {
			t.Errorf("event %d: DTC %+v, want %+v", i, got[i].DTC, *want[i].DTC)
		}
	}
	bad := "vehicle,time,type,dtc,note\nv1,2023-01-01T00:00:00Z,dtc,P0128:sticky,\n"
	if _, err := ReadEventsCSV(bytes.NewBufferString(bad)); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("unknown DTC kind: err = %v, want a row-numbered error", err)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadRecordsCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty records csv should error")
	}
	if _, err := ReadRecordsCSV(bytes.NewBufferString("a,b\n1,2\n")); err == nil {
		t.Error("wrong column count should error")
	}
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, make([]timeseries.Record, 2)); err != nil {
		t.Fatal(err)
	}
	torn := strings.Replace(buf.String(), "0.000", "zero", 1) + "short,row\n"
	if _, err := ReadRecordsCSV(strings.NewReader(torn)); err == nil || !strings.Contains(err.Error(), "row 2 col rpm") {
		t.Errorf("bad value: err = %v, want it to name row 2 col rpm", err)
	}
	if _, err := ReadEventsCSV(bytes.NewBufferString("")); err == nil {
		t.Error("empty events csv should error")
	}
	bad := "vehicle,time,type,dtc,note\nv1,2023-01-01T00:00:00Z,banana,,\n"
	if _, err := ReadEventsCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("unknown event type should error")
	}
}

// TestReadRecordsCSVRetainsOnlyRecords bounds what a parsed file keeps
// alive: the record slice and a handful of interned IDs, not a CSV line
// per record behind each VehicleID.
func TestReadRecordsCSVRetainsOnlyRecords(t *testing.T) {
	f := Generate(SmallConfig())
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, f.Records[:50_000]); err != nil {
		t.Fatal(err)
	}
	f = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := ReadRecordsCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	slice := int64(cap(recs)) * int64(unsafe.Sizeof(recs[0]))
	extra := int64(after.HeapAlloc) - int64(before.HeapAlloc) - slice
	if perRecord := float64(extra) / float64(len(recs)); perRecord > 8 {
		t.Errorf("%.1f bytes retained per record beyond the %d-byte slice, want <= 8", perRecord, slice)
	}
	runtime.KeepAlive(recs)
	runtime.KeepAlive(&buf)
}

func TestDefaultConfigScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short mode")
	}
	f := Generate(DefaultConfig())
	// Paper: ~1.5M records. Accept a generous band.
	if n := len(f.Records); n < 1_000_000 || n > 2_200_000 {
		t.Errorf("default fleet has %d records, want ~1.5M", n)
	}
	// Paper: 121 recorded events (services + repairs, excluding DTCs).
	maint := 0
	for _, ev := range f.Events {
		if ev.Type != obd.EventDTC {
			maint++
		}
	}
	if maint < 90 || maint > 160 {
		t.Errorf("recorded maintenance events = %d, want ≈121", maint)
	}
	if got := len(repairs(f.Events)); got != 9 {
		t.Errorf("recorded failures = %d, want 9", got)
	}
	if got := len(f.EventVehicleIDs()); got < 20 || got > 26 {
		t.Errorf("vehicles with events = %d, want ≈26", got)
	}
}

func TestConfigForScale(t *testing.T) {
	for name, want := range map[string]Config{
		"small": SmallConfig(), "bench": BenchConfig(), "paper": DefaultConfig(),
	} {
		want.Seed = 7
		got, err := ConfigForScale(name, 7)
		if err != nil || got != want {
			t.Errorf("ConfigForScale(%q, 7) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	_, err := ConfigForScale("huge", 1)
	if err == nil || !strings.Contains(err.Error(), "small, bench or paper") {
		t.Errorf("unknown scale: err = %v, want one listing the valid names", err)
	}
}

func TestValidateClamps(t *testing.T) {
	c := Config{Seed: 1, NumVehicles: 0, Days: 1, RecordedVehicles: 100, RecordedFailures: 50, HiddenFailures: 50}
	c.validate()
	if c.NumVehicles != 1 || c.Days != 30 {
		t.Errorf("clamps wrong: %+v", c)
	}
	if c.RecordedVehicles > c.NumVehicles || c.RecordedFailures > c.RecordedVehicles {
		t.Errorf("recording clamps wrong: %+v", c)
	}
	if c.HiddenFailures != 0 {
		t.Errorf("hidden failures should clamp to 0, got %d", c.HiddenFailures)
	}
}
