//go:build race

package fleetsim

// raceEnabled reports that the race detector is on: its shadow memory
// multiplies the 400 x 100 fleet's ~600 MB several times over, so
// TestGenerateGolden leaves that shape to the plain test run.
const raceEnabled = true
