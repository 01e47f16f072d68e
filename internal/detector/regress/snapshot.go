package regress

import (
	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/gbt"
)

// snapshotTag identifies regression-detector payloads among the
// detector snapshot formats.
const snapshotTag = uint8(13)

// Snapshot implements checkpoint.Snapshotter: channel names plus the
// per-feature boosted ensembles (each serialised with its full config —
// see gbt.AppendTo).
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Bool(d.models != nil)
	if d.models == nil {
		return b.Bytes(), nil
	}
	b.Int(d.dim)
	for _, n := range d.names {
		b.String(n)
	}
	for _, m := range d.models {
		m.AppendTo(&b)
	}
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
		d.models, d.dim = nil, 0
		return nil
	}
	dim := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if dim <= 0 || dim > 1<<20 {
		return detector.ErrBadSnapshot
	}
	names := make([]string, dim)
	for i := range names {
		names[i] = r.String()
	}
	models := make([]*gbt.Regressor, 0, dim)
	for c := 0; c < dim; c++ {
		m, err := gbt.ReadRegressor(r)
		if err != nil {
			return err
		}
		// Each model predicts its feature from the dim-1 others.
		if m.NumFeatures() != dim-1 {
			return detector.ErrBadSnapshot
		}
		models = append(models, m)
	}
	if err := r.Close(); err != nil {
		return err
	}
	d.dim = dim
	d.names = names
	d.models = models
	return nil
}
