//go:build race

package core_test

// raceEnabled reports that the race detector is on: the raw and delta
// transforms emit a sample per kept record, so scoring the whole small
// fleet four times over takes minutes under it. There,
// TestRunVehicleMatchesReference replays two vehicles and the tail case
// of those transforms; `make resume-gate` runs it whole without -race.
const raceEnabled = true
