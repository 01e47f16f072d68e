package tranad

import (
	"math/rand"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
)

// snapshotTag identifies TranAD payloads among the detector snapshot
// formats.
const snapshotTag = uint8(12)

// Snapshot implements checkpoint.Snapshotter: the standardisation
// statistics, every trained weight (in the fixed params() order) and
// the streaming score window, written oldest-first so the payload is
// canonical under ring rotation.
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Bool(d.net != nil)
	if d.net == nil {
		return b.Bytes(), nil
	}
	b.Int(d.dim)
	b.Float64s(d.means)
	b.Float64s(d.stds)
	params := d.params()
	b.Int(len(params))
	for _, p := range params {
		b.Float64s(p.W)
	}
	b.Int(d.n)
	for r := 0; r < d.n; r++ {
		w := len(d.ring)
		b.Float64s(d.ring[(d.pos-d.n+r+2*w)%w])
	}
	return b.Bytes(), nil
}

// Restore implements checkpoint.Snapshotter. The architecture is rebuilt
// from the configuration (the throwaway rng only initialises weights
// that are immediately overwritten), then every parameter slice is
// replaced from the snapshot.
func (d *Detector) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != snapshotTag {
		return detector.ErrBadSnapshot
	}
	if !r.Bool() {
		if err := r.Close(); err != nil {
			return err
		}
		d.net = nil
		d.means, d.stds, d.ring = nil, nil, nil
		d.dim, d.pos, d.n = 0, 0, 0
		return nil
	}
	dim := r.Int()
	means := r.Float64s()
	stds := r.Float64s()
	numParams := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if dim <= 0 || len(means) != dim || len(stds) != dim ||
		numParams <= 0 || numParams > 1<<16 {
		return detector.ErrBadSnapshot
	}
	weights := make([][]float64, numParams)
	for i := range weights {
		weights[i] = r.Float64s()
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if n < 0 || n > d.cfg.Window {
		return detector.ErrBadSnapshot
	}
	ring := make([][]float64, d.cfg.Window)
	for i := 0; i < n; i++ {
		row := r.Float64s()
		if len(row) != dim {
			return detector.ErrBadSnapshot
		}
		ring[i] = row
	}
	if err := r.Close(); err != nil {
		return err
	}

	net := d.newNetwork(dim, rand.New(rand.NewSource(d.cfg.Seed)))
	if len(net.params) != numParams {
		return detector.ErrBadSnapshot
	}
	for i, p := range net.params {
		if len(weights[i]) != len(p.W) {
			return detector.ErrBadSnapshot
		}
		copy(p.W, weights[i])
	}

	d.dim = dim
	d.means, d.stds = means, stds
	d.net = net
	d.ring = ring
	d.pos = n % len(ring)
	d.n = n
	d.ensureInferScratch()
	dm, w := d.cfg.DModel, len(ring)
	for i, row := range ring[:n] {
		net.inf.encLin.Apply(1, row, d.linBuf[i*dm:(i+1)*dm])
		copy(d.linBuf[(i+w)*dm:], d.linBuf[i*dm:(i+1)*dm])
	}
	return nil
}
