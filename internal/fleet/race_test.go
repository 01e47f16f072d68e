//go:build race

package fleet

// raceEnabled reports that the race detector is on: sync.Pool
// deliberately drops items under -race, so a test counting the
// allocations of a path that reuses pooled staging must not run then.
const raceEnabled = true
