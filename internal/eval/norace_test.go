//go:build !race

package eval

// raceEnabled reports that the race detector is off; see race_test.go.
const raceEnabled = false
