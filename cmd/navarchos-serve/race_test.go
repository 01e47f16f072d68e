//go:build race

package main

// raceEnabled reports that the race detector is on: sync.Pool
// deliberately drops items under -race, so tests asserting that a
// request reuses a parked decoder must not insist on it then.
const raceEnabled = true
