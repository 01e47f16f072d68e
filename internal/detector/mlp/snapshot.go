package mlp

import (
	"math/rand"

	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/nn"
)

// snapshotTag identifies MLP payloads among the detector snapshot
// formats.
const snapshotTag = uint8(15)

// Snapshot implements checkpoint.Snapshotter: the effective target index
// (Fit clamps an out-of-range configured target, making it state), the
// standardisation statistics and every trained weight.
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Bool(d.net != nil)
	if d.net == nil {
		return b.Bytes(), nil
	}
	b.Int(d.dim)
	b.Int(d.cfg.Target)
	b.Float64s(d.inMeans)
	b.Float64s(d.inStds)
	b.Float64(d.outMean)
	b.Float64(d.outStd)
	params := d.net.Params()
	b.Int(len(params))
	for _, p := range params {
		b.Float64s(p.W)
	}
	return b.Bytes(), nil
}

// Restore implements checkpoint.Snapshotter: rebuild the architecture
// from the configuration, then overwrite every weight.
func (d *Detector) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if r.Uint8() != snapshotTag {
		return detector.ErrBadSnapshot
	}
	if !r.Bool() {
		if err := r.Close(); err != nil {
			return err
		}
		d.net, d.inMeans, d.inStds = nil, nil, nil
		d.dim, d.outMean, d.outStd = 0, 0, 0
		return nil
	}
	dim := r.Int()
	target := r.Int()
	inMeans := r.Float64s()
	inStds := r.Float64s()
	outMean := r.Float64()
	outStd := r.Float64()
	numParams := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if dim <= 1 || target < 0 || target >= dim ||
		len(inMeans) != dim-1 || len(inStds) != dim-1 ||
		numParams <= 0 || numParams > 1<<16 {
		return detector.ErrBadSnapshot
	}
	weights := make([][]float64, numParams)
	for i := range weights {
		weights[i] = r.Float64s()
	}
	if err := r.Close(); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(d.cfg.Seed))
	net := nn.NewSequential(
		nn.NewLinear(dim-1, d.cfg.Hidden, rng),
		nn.NewTanh(),
		nn.NewLinear(d.cfg.Hidden, d.cfg.Hidden, rng),
		nn.NewTanh(),
		nn.NewLinear(d.cfg.Hidden, 1, rng),
	)
	params := net.Params()
	if len(params) != numParams {
		return detector.ErrBadSnapshot
	}
	for i, p := range params {
		if len(weights[i]) != len(p.W) {
			return detector.ErrBadSnapshot
		}
		copy(p.W, weights[i])
	}

	d.dim = dim
	d.cfg.Target = target
	d.inMeans, d.inStds = inMeans, inStds
	d.outMean, d.outStd = outMean, outStd
	d.net = net
	return nil
}
