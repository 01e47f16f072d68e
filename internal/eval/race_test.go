//go:build race

package eval

// raceEnabled reports that the race detector is on: TranAD's
// allocate-per-call reference scorer over a whole per-record stream
// takes about a minute under it, so TestRunGridKernelOraclesMatchDefaults
// leaves that leg to the plain run (`make grid-equiv`, straight after
// `make race`), which is where the float equality is checked anyway.
const raceEnabled = true
