//go:build !race

package core_test

// raceEnabled reports that the race detector is off; see race_test.go.
const raceEnabled = false
