// Package fleetsim generates synthetic vehicle-fleet telemetry that
// stands in for the proprietary Navarchos dataset analysed in the paper.
//
// The generator reproduces the dataset's documented statistics — 40
// vehicles, one year of operation at one measurement per minute while
// driving (~1.5M records), 121 recorded events on 26 of the 40 vehicles
// of which 9 are failures — and, more importantly, its documented
// *structure*:
//
//   - different vehicle models and usage regimes (urban, regional, long
//     and very short rides) move the raw signal levels around without
//     touching the cross-signal correlations, which is why raw-space
//     clustering and distance-based outlier detection fail (Section 2);
//   - failures are preceded by a degradation window during which the
//     physical couplings between signals progressively break (a stuck
//     thermostat decouples coolant temperature from its regulated
//     setpoint, a drifting MAF sensor decouples air flow from rpm×MAP,
//     ...), which is exactly the signature the correlation transform
//     exposes (Section 3);
//   - event recording is partial: only a subset of vehicles have any
//     events recorded, some failures happen on unmonitored vehicles, and
//     DTCs are noisy and mostly unrelated to failures (Figure 1).
//
// Everything is deterministic given Config.Seed, whatever GOMAXPROCS is:
// each vehicle owns a rand.Source, so Generate simulates vehicles
// concurrently, and Records are ordered by (time, vehicle index), which
// no scheduling can change (TestGenerateGolden).
package fleetsim

import (
	"fmt"
	"time"
)

// Config controls the synthetic fleet. The zero value is not valid; use
// DefaultConfig (paper scale) or SmallConfig (test/bench scale) and
// adjust fields as needed.
type Config struct {
	Seed int64

	// NumVehicles is the fleet size (paper: 40).
	NumVehicles int
	// Days is the number of simulated days (paper: ~365).
	Days int
	// Start is the first simulated day (midnight UTC).
	Start time.Time

	// AvgDriveMinutes is the average driving minutes per vehicle per
	// day; at one record per minute this determines dataset size
	// (paper: ~1.5M records / 40 vehicles / 365 days ≈ 103 min/day).
	AvgDriveMinutes float64

	// RecordedVehicles is how many vehicles have any events recorded by
	// the FMS (paper: 26 of 40).
	RecordedVehicles int
	// RecordedFailures is how many repair events are recorded, each on
	// a distinct recorded vehicle (paper: 9).
	RecordedFailures int
	// HiddenFailures is how many failures occur on vehicles without
	// event recording; they generate genuine anomalies that can only
	// ever count as false positives (the paper notes setting40 vehicles
	// "may have actual failures unknown to us").
	HiddenFailures int
	// ServiceIntervalDays is the nominal spacing of recorded standard
	// services (jittered ±25%). With 26 vehicles over a year the paper
	// total of 121 events implies roughly one service per vehicle per
	// ~85 days.
	ServiceIntervalDays int

	// DegradationDaysMin/Max bound the length of the pre-failure
	// degradation window during which fault severity ramps 0→1.
	DegradationDaysMin int
	DegradationDaysMax int

	// UsageDriftVehicles is how many vehicles switch usage regime
	// mid-simulation (stressing raw-data detectors exactly as weather
	// and driver volatility do in the paper).
	UsageDriftVehicles int
}

// DefaultConfig mirrors the paper's fleet: 40 vehicles, one year,
// ~103 driving minutes/day (≈1.5M records), 26 recorded vehicles,
// 9 recorded failures.
func DefaultConfig() Config {
	return Config{
		Seed:                1,
		NumVehicles:         40,
		Days:                365,
		Start:               time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC),
		AvgDriveMinutes:     103,
		RecordedVehicles:    26,
		RecordedFailures:    9,
		HiddenFailures:      3,
		ServiceIntervalDays: 85,
		DegradationDaysMin:  20,
		DegradationDaysMax:  32,
		UsageDriftVehicles:  6,
	}
}

// SmallConfig is a scaled-down fleet for tests and examples: same
// structure, ~2 orders of magnitude fewer records.
func SmallConfig() Config {
	c := DefaultConfig()
	c.NumVehicles = 8
	c.Days = 160
	c.AvgDriveMinutes = 95
	c.RecordedVehicles = 6
	c.RecordedFailures = 3
	c.HiddenFailures = 1
	c.ServiceIntervalDays = 50
	c.DegradationDaysMin = 18
	c.DegradationDaysMax = 28
	c.UsageDriftVehicles = 2
	return c
}

// BenchConfig sits between the two: large enough for the experiment
// harness to reproduce the paper's comparative shape, small enough that
// the full technique × transform grid runs in minutes on a laptop.
func BenchConfig() Config {
	c := DefaultConfig()
	c.NumVehicles = 40
	c.Days = 240
	c.AvgDriveMinutes = 95
	c.ServiceIntervalDays = 70
	return c
}

// ConfigForScale returns the named dataset scale — "small"
// (SmallConfig), "bench" (BenchConfig) or "paper" (DefaultConfig) — with
// the given generator seed: the -scale flag of every command.
func ConfigForScale(name string, seed int64) (Config, error) {
	var c Config
	switch name {
	case "small":
		c = SmallConfig()
	case "bench":
		c = BenchConfig()
	case "paper":
		c = DefaultConfig()
	default:
		return Config{}, fmt.Errorf("fleetsim: unknown scale %q (want small, bench or paper)", name)
	}
	c.Seed = seed
	return c, nil
}

// validate normalises and sanity-checks the configuration.
func (c *Config) validate() {
	if c.NumVehicles < 1 {
		c.NumVehicles = 1
	}
	if c.Days < 30 {
		c.Days = 30
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.AvgDriveMinutes <= 0 {
		c.AvgDriveMinutes = 60
	}
	if c.RecordedVehicles > c.NumVehicles {
		c.RecordedVehicles = c.NumVehicles
	}
	if c.RecordedVehicles < 1 {
		c.RecordedVehicles = c.NumVehicles
	}
	if c.RecordedFailures > c.RecordedVehicles {
		c.RecordedFailures = c.RecordedVehicles
	}
	if c.HiddenFailures > c.NumVehicles-c.RecordedVehicles {
		c.HiddenFailures = c.NumVehicles - c.RecordedVehicles
	}
	if c.ServiceIntervalDays < 10 {
		c.ServiceIntervalDays = 10
	}
	if c.DegradationDaysMin < 5 {
		c.DegradationDaysMin = 5
	}
	if c.DegradationDaysMax < c.DegradationDaysMin {
		c.DegradationDaysMax = c.DegradationDaysMin
	}
}
