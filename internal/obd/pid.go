// Package obd models the vehicle-side domain objects of the paper's
// setting: the six OBD-II Parameter ID (PID) signals collected by the
// fleet management system, Diagnostic Trouble Codes (DTCs), and the
// maintenance events (services, repairs) whose partial recording defines
// the problem.
package obd

import "fmt"

// PID identifies one of the monitored OBD-II parameters.
type PID int

// The six PIDs collected by the Navarchos FMS (Section 1 of the paper),
// in the order used throughout the library for feature vectors.
const (
	EngineRPM      PID = iota // engine speed, revolutions per minute
	Speed                     // vehicle speed, km/h
	CoolantTemp               // engine coolant temperature, °C
	IntakeTemp                // intake manifold air temperature, °C
	MAPIntake                 // manifold absolute pressure, kPa
	MAFAirFlowRate            // mass air flow rate, g/s
	NumPIDs                   // count of PIDs; keep last
)

var pidNames = [NumPIDs]string{
	"rpm", "speed", "coolantTemp", "intakeTemp", "mapIntake", "MAFairFlowRate",
}

// String returns the short signal name used in logs and result tables.
func (p PID) String() string {
	if p < 0 || p >= NumPIDs {
		return fmt.Sprintf("PID(%d)", int(p))
	}
	return pidNames[p]
}

// PIDNames returns the canonical signal names in PID order.
func PIDNames() []string {
	out := make([]string, NumPIDs)
	for i := range out {
		out[i] = PID(i).String()
	}
	return out
}

// Range describes the physically plausible envelope of a PID; values
// outside it are treated as sensor faults and filtered before any
// transformation (Section 3.2 of the paper).
type Range struct{ Min, Max float64 }

// Envelope returns the plausible range for each PID. The bounds are
// generous: they are meant to reject transmission glitches (e.g. -40 °C
// coolant while driving, 20 000 rpm), not to clip legitimate operation.
func Envelope(p PID) Range {
	switch p {
	case EngineRPM:
		return Range{0, 8000}
	case Speed:
		return Range{0, 220}
	case CoolantTemp:
		return Range{-30, 135}
	case IntakeTemp:
		return Range{-30, 90}
	case MAPIntake:
		return Range{10, 255}
	case MAFAirFlowRate:
		return Range{0, 350}
	default:
		return Range{0, 0}
	}
}

// InEnvelope reports whether v is physically plausible for PID p.
func InEnvelope(p PID, v float64) bool {
	r := Envelope(p)
	return v >= r.Min && v <= r.Max
}
