package isoforest

import (
	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/iforest"
)

// snapshotTag identifies isolation-forest payloads among the detector
// snapshot formats.
const snapshotTag = uint8(14)

// Snapshot implements checkpoint.Snapshotter: the fitted forest (with its
// effective config — see iforest.AppendTo) and input dimensionality.
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Bool(d.forest != nil)
	if d.forest == nil {
		return b.Bytes(), nil
	}
	b.Int(d.dim)
	d.forest.AppendTo(&b)
	return b.Bytes(), nil
}

// Restore implements checkpoint.Snapshotter.
func (d *Detector) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != snapshotTag {
		return detector.ErrBadSnapshot
	}
	if !r.Bool() {
		if err := r.Close(); err != nil {
			return err
		}
		d.forest, d.dim = nil, 0
		return nil
	}
	dim := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if dim <= 0 {
		return detector.ErrBadSnapshot
	}
	f, err := iforest.ReadForest(r)
	if err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	d.forest = f
	d.dim = dim
	return nil
}
