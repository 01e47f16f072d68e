package fleetsim

import "fmt"

// Model describes a vehicle model's engine characteristics. Different
// models shift raw signal levels (the single-vehicle clusters of
// Figure 2) without altering the physical couplings between signals.
type Model struct {
	Name        string
	RPMPerKmh   float64 // effective overall gearing: rpm ≈ idle + speed·RPMPerKmh
	IdleRPM     float64
	Thermostat  float64 // regulated coolant setpoint, °C
	MAFScale    float64 // volumetric-efficiency constant in the speed-density equation
	MAPBase     float64 // manifold pressure at zero load, kPa
	MAPLoadGain float64 // manifold pressure rise at full load, kPa
}

// The model catalogue. Indices matter only for deterministic assignment.
var models = []Model{
	{Name: "hatch-1.2", RPMPerKmh: 33, IdleRPM: 820, Thermostat: 88, MAFScale: 0.0105, MAPBase: 30, MAPLoadGain: 68},
	{Name: "sedan-1.6", RPMPerKmh: 28, IdleRPM: 780, Thermostat: 90, MAFScale: 0.0135, MAPBase: 32, MAPLoadGain: 70},
	{Name: "van-2.0d", RPMPerKmh: 24, IdleRPM: 850, Thermostat: 84, MAFScale: 0.0175, MAPBase: 36, MAPLoadGain: 85},
	{Name: "suv-2.2d", RPMPerKmh: 22, IdleRPM: 760, Thermostat: 86, MAFScale: 0.0190, MAPBase: 38, MAPLoadGain: 90},
	{Name: "pickup-2.4", RPMPerKmh: 26, IdleRPM: 800, Thermostat: 87, MAFScale: 0.0160, MAPBase: 34, MAPLoadGain: 80},
}

// RideType categorises a trip; each type induces a distinct raw-signal
// regime (the usage clusters of Figure 2) while preserving correlations.
type RideType int

const (
	RideUrban    RideType = iota // stop-and-go, 20–55 km/h
	RideShort                    // brief errands, engine often below temperature
	RideRegional                 // 60–90 km/h steady
	RideLong                     // long cruises, 80–110 km/h
	RideFast                     // high speed/rpm motorway legs
	numRideTypes
)

// String implements fmt.Stringer.
func (r RideType) String() string {
	if r < 0 || r >= numRideTypes {
		return fmt.Sprintf("RideType(%d)", int(r))
	}
	return rideCatalog[r].name
}

// rideParams holds the trip-level kinematics of a ride type.
type rideParams struct {
	name        string
	targetSpeed float64 // cruise target, km/h
	speedJitter float64 // short-term variation
	stopProb    float64 // probability per minute of a stop (urban lights)
	minMinutes  int
	maxMinutes  int
}

var rideCatalog = [numRideTypes]rideParams{
	RideUrban:    {name: "urban", targetSpeed: 38, speedJitter: 12, stopProb: 0.16, minMinutes: 12, maxMinutes: 45},
	RideShort:    {name: "short", targetSpeed: 28, speedJitter: 9, stopProb: 0.12, minMinutes: 4, maxMinutes: 12},
	RideRegional: {name: "regional", targetSpeed: 74, speedJitter: 9, stopProb: 0.02, minMinutes: 25, maxMinutes: 70},
	RideLong:     {name: "long", targetSpeed: 92, speedJitter: 7, stopProb: 0.005, minMinutes: 60, maxMinutes: 160},
	RideFast:     {name: "fast", targetSpeed: 112, speedJitter: 8, stopProb: 0.002, minMinutes: 30, maxMinutes: 90},
}

// UsageProfile is a vehicle's mixture over ride types; weights sum to 1.
type UsageProfile struct {
	Name    string
	Weights [numRideTypes]float64
}

var usageCatalog = []UsageProfile{
	{Name: "mixed", Weights: [numRideTypes]float64{0.45, 0.15, 0.25, 0.10, 0.05}},
	{Name: "city", Weights: [numRideTypes]float64{0.70, 0.20, 0.08, 0.02, 0.00}},
	{Name: "errand", Weights: [numRideTypes]float64{0.25, 0.65, 0.10, 0.00, 0.00}},
	{Name: "regional", Weights: [numRideTypes]float64{0.15, 0.05, 0.55, 0.20, 0.05}},
	{Name: "longhaul", Weights: [numRideTypes]float64{0.05, 0.02, 0.18, 0.45, 0.30}},
}

// Vehicle is the static description of one simulated vehicle.
type Vehicle struct {
	ID          string
	Model       Model
	Usage       UsageProfile
	DriftDay    int          // day the usage profile switches; -1 = never
	DriftUsage  UsageProfile // profile after DriftDay
	Recorded    bool         // whether the FMS records this vehicle's events
	FailureDay  int          // day of the (single) injected failure; -1 = none
	Fault       FaultKind    // fault behind the failure (FaultNone if none)
	DegradeDays int          // length of the pre-failure degradation ramp

	// maintDays lists every day (recorded or not) on which the vehicle
	// was physically serviced or repaired; routine wear accumulated
	// since the last such day (the "maintenance debt") is reset by it.
	maintDays []int
}

// debt returns the vehicle's maintenance debt in [0, 1] on the given
// day: routine wear (air-filter clogging, heat soak) accumulating since
// the last physical service or repair, saturating after ~200 days. It
// is what makes reference profiles gradually stale when service events
// are ignored (the paper's Table 3 ablation).
func (v *Vehicle) debt(day int) float64 {
	last := 0
	for _, d := range v.maintDays {
		if d <= day && d > last {
			last = d
		}
	}
	return min(float64(day-last)/200, 1)
}

// vehicleID formats the canonical vehicle identifier.
func vehicleID(i int) string { return fmt.Sprintf("veh-%02d", i) }
