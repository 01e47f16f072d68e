package closestpair

import (
	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
)

// snapshotTag identifies closest-pair payloads among the detector
// snapshot formats.
const snapshotTag = uint8(10)

// Snapshot implements checkpoint.Snapshotter: the per-feature sorted
// reference columns, channel names and leave-one-out calibration scores
// — the detector's entire post-Fit state.
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Int(len(d.names))
	for _, n := range d.names {
		b.String(n)
	}
	b.Float64Rows(d.sorted)
	b.Float64Rows(d.loo)
	return b.Bytes(), nil
}

// Restore implements checkpoint.Snapshotter.
func (d *Detector) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if err := detector.CheckTag(r, snapshotTag); err != nil {
		return err
	}
	numNames := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if numNames < 0 || numNames > 1<<20 {
		return detector.ErrBadSnapshot
	}
	names := make([]string, numNames)
	for i := range names {
		names[i] = r.String()
	}
	sorted := r.Float64Rows()
	loo := r.Float64Rows()
	if err := r.Close(); err != nil {
		return err
	}
	// A fitted detector always has one sorted column per channel, all
	// the same length; enforce the invariants ScoreInto relies on.
	for _, col := range sorted {
		if len(col) == 0 {
			return detector.ErrBadSnapshot
		}
	}
	if sorted != nil && len(names) != len(sorted) {
		return detector.ErrBadSnapshot
	}
	for _, row := range loo {
		if len(row) != len(sorted) {
			return detector.ErrBadSnapshot
		}
	}
	d.names = names
	if numNames == 0 {
		d.names = nil // unfitted snapshot restores to unfitted state
	}
	d.sorted = sorted
	d.loo = loo
	return nil
}
