package obd

import (
	"testing"
	"time"
)

func TestPIDNames(t *testing.T) {
	names := PIDNames()
	if len(names) != int(NumPIDs) {
		t.Fatalf("got %d names, want %d", len(names), NumPIDs)
	}
	want := []string{"rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "MAFairFlowRate"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("names[%d] = %q, want %q", i, names[i], w)
		}
	}
	if PID(99).String() != "PID(99)" {
		t.Errorf("out-of-range PID String = %q", PID(99).String())
	}
}

func TestEnvelope(t *testing.T) {
	if !InEnvelope(EngineRPM, 800) {
		t.Error("idle rpm should be plausible")
	}
	if InEnvelope(EngineRPM, 20000) {
		t.Error("20000 rpm should be implausible")
	}
	if InEnvelope(CoolantTemp, -40) {
		t.Error("-40C coolant should be implausible")
	}
	if !InEnvelope(Speed, 0) {
		t.Error("0 km/h must be in envelope")
	}
	if InEnvelope(MAFAirFlowRate, -5) {
		t.Error("negative MAF should be implausible")
	}
	r := Envelope(PID(99))
	if r.Min != 0 || r.Max != 0 {
		t.Error("unknown PID should have empty envelope")
	}
}

func TestDTCKindString(t *testing.T) {
	if DTCPending.String() != "pending" || DTCStored.String() != "stored" {
		t.Error("DTCKind names wrong")
	}
	if DTCKind(9).String() != "DTCKind(9)" {
		t.Error("unknown kind format wrong")
	}
	if len(KnownDTCs()) < 5 {
		t.Error("expected several known DTCs")
	}
}

func TestEventString(t *testing.T) {
	ts := time.Date(2023, 4, 1, 12, 0, 0, 0, time.UTC)
	e := Event{VehicleID: "veh-01", Time: ts, Type: EventRepair, Note: "thermostat"}
	got := e.String()
	want := "2023-04-01 veh-01 repair (thermostat)"
	if got != want {
		t.Errorf("Event.String = %q, want %q", got, want)
	}
	d := DTCThermostat
	e2 := Event{VehicleID: "veh-02", Time: ts, Type: EventDTC, DTC: &d}
	if got := e2.String(); got != "2023-04-01 veh-02 dtc P0128" {
		t.Errorf("DTC event string = %q", got)
	}
	if EventType(7).String() != "EventType(7)" {
		t.Error("unknown event type format wrong")
	}
}

func TestEventIsReset(t *testing.T) {
	if !(Event{Type: EventService}).IsReset() {
		t.Error("service should reset")
	}
	if !(Event{Type: EventRepair}).IsReset() {
		t.Error("repair should reset")
	}
	if (Event{Type: EventDTC}).IsReset() {
		t.Error("DTC should not reset")
	}
}

// TestParseRoundTrip holds the text forms to one definition: what
// String() writes, ParseEventType and ParseDTC read back — for codes of
// any length, not just the five characters of a powertrain code.
func TestParseRoundTrip(t *testing.T) {
	for typ := EventService; typ <= EventDTC; typ++ {
		got, err := ParseEventType(typ.String())
		if err != nil || got != typ {
			t.Errorf("ParseEventType(%q) = %v, %v", typ.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Repair", EventType(7).String()} {
		if _, err := ParseEventType(bad); err == nil {
			t.Errorf("ParseEventType(%q) accepted", bad)
		}
	}

	dtcs := append(KnownDTCs(),
		DTC{Code: "P01", Kind: DTCStored},
		DTC{Code: "U0100-A7", Kind: DTCStored},
		DTC{Code: "B1", Kind: DTCPending})
	for _, d := range dtcs {
		text := d.Code + ":" + d.Kind.String()
		got, err := ParseDTC(text)
		if err != nil || got != d {
			t.Errorf("ParseDTC(%q) = %+v, %v, want %+v", text, got, err, d)
		}
	}
	if got, err := ParseDTC("P0128"); err != nil || got != (DTC{Code: "P0128", Kind: DTCPending}) {
		t.Errorf("bare code parsed as %+v, %v, want a pending P0128", got, err)
	}
	for _, bad := range []string{"", ":stored", "P0128:sticky", "P0128:" + DTCKind(9).String()} {
		if _, err := ParseDTC(bad); err == nil {
			t.Errorf("ParseDTC(%q) accepted", bad)
		}
	}
}
