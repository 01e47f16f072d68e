package fleetsim

import (
	"fmt"
	"math"
)

// FaultKind enumerates the injected degradation mechanisms. Each one
// progressively breaks a physical coupling between signals — the
// behavioural change the paper's correlation transform is designed to
// expose — while moving raw levels only moderately compared to ordinary
// usage and weather variation.
type FaultKind int

const (
	// FaultNone means the vehicle never degrades.
	FaultNone FaultKind = iota
	// FaultThermostat models a thermostat stuck open: the coolant
	// temperature loses its regulated setpoint and starts tracking
	// airflow (speed) and load instead.
	FaultThermostat
	// FaultMAFDrift models a contaminated mass-airflow sensor: the MAF
	// reading decouples from the speed-density estimate rpm×MAP.
	FaultMAFDrift
	// FaultIntakeLeak models a leaking intake manifold: MAP rises at
	// low load, flattening the MAP↔rpm coupling.
	FaultIntakeLeak
	// FaultHeadGasket models early head-gasket failure: coolant
	// temperature becomes strongly load-dependent and airflow drops.
	FaultHeadGasket
	numFaultKinds
)

var faultNames = [numFaultKinds]string{"none", "thermostat stuck open", "MAF sensor drift", "intake manifold leak", "head gasket failure"}

// String implements fmt.Stringer; the names double as repair notes.
func (f FaultKind) String() string {
	if f < 0 || f >= numFaultKinds {
		return fmt.Sprintf("FaultKind(%d)", int(f))
	}
	return faultNames[f]
}

// cycleFault deterministically assigns the i-th failure a fault kind,
// cycling through the four mechanisms.
func cycleFault(i int) FaultKind {
	return FaultKind(1 + i%(int(numFaultKinds)-1))
}

// severity returns the degradation severity in [0, 1] for the given day,
// ramping linearly across the degradation window and saturating at 1 on
// the failure day. Zero outside the window or when no fault is set.
func (v *Vehicle) severity(day int) float64 {
	if v.Fault == FaultNone || v.FailureDay < 0 {
		return 0
	}
	start := v.FailureDay - v.DegradeDays
	if day < start || day > v.FailureDay {
		return 0
	}
	s := min(float64(day-start)/float64(v.DegradeDays), 1)
	// Concave ramp: degradation progresses quickly at onset and then
	// saturates (a cracked hose or contaminated sensor does most of its
	// damage early), so behavioural change is already visible well
	// before the failure day — which is what makes PH=15 strictly
	// harder than PH=30 in the evaluation, as in the paper.
	return math.Pow(s, 0.75)
}
