package obd

import (
	"fmt"
	"strings"
)

// DTCKind distinguishes the two classes of Diagnostic Trouble Codes the
// ECU produces (Section 1): pending codes are one-off observations that
// do not repeat; stored codes indicate a repeating malfunction.
type DTCKind int

const (
	// DTCPending marks a malfunction observed once.
	DTCPending DTCKind = iota
	// DTCStored marks a repeating malfunction.
	DTCStored
)

// String implements fmt.Stringer.
func (k DTCKind) String() string {
	switch k {
	case DTCPending:
		return "pending"
	case DTCStored:
		return "stored"
	default:
		return fmt.Sprintf("DTCKind(%d)", int(k))
	}
}

// DTC is a diagnostic trouble code report.
type DTC struct {
	Code string // e.g. "P0128" (coolant thermostat), "P0101" (MAF range)
	Kind DTCKind
}

// ParseDTC reads the CODE:kind text form the events CSV and the JSON
// ingest carry — the code, a colon and DTCKind.String() — with a bare
// code meaning a pending one.
func ParseDTC(s string) (DTC, error) {
	code, kind, _ := strings.Cut(s, ":")
	if code == "" {
		return DTC{}, fmt.Errorf("obd: DTC %q has no code", s)
	}
	switch kind {
	case "", DTCPending.String():
		return DTC{Code: code, Kind: DTCPending}, nil
	case DTCStored.String():
		return DTC{Code: code, Kind: DTCStored}, nil
	}
	return DTC{}, fmt.Errorf("obd: unknown DTC kind %q in %q", kind, s)
}

// Common powertrain codes used by the simulator. The fleet in the paper
// consists of new vehicles, so DTCs are sparse and — crucially — poorly
// aligned with actual failures (Figure 1).
var (
	DTCThermostat    = DTC{Code: "P0128", Kind: DTCStored}  // coolant below thermostat temp
	DTCMAFRange      = DTC{Code: "P0101", Kind: DTCStored}  // MAF circuit range/performance
	DTCMAPRange      = DTC{Code: "P0106", Kind: DTCPending} // MAP range/performance
	DTCIntakeLeak    = DTC{Code: "P0171", Kind: DTCPending} // system too lean
	DTCMisfire       = DTC{Code: "P0300", Kind: DTCPending} // random misfire
	DTCCoolantSensor = DTC{Code: "P0117", Kind: DTCPending} // coolant sensor low input
)

// KnownDTCs lists the codes the simulator can emit.
func KnownDTCs() []DTC {
	return []DTC{DTCThermostat, DTCMAFRange, DTCMAPRange, DTCIntakeLeak, DTCMisfire, DTCCoolantSensor}
}
