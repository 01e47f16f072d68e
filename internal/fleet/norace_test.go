//go:build !race

package fleet

// raceEnabled reports that the race detector is off; see race_test.go.
const raceEnabled = false
