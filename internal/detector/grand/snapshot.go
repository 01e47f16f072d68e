package grand

import (
	"github.com/navarchos/pdm/internal/checkpoint"
	"github.com/navarchos/pdm/internal/detector"
)

// snapshotTag identifies Grand payloads among the detector snapshot
// formats.
const snapshotTag = uint8(11)

// Snapshot implements checkpoint.Snapshotter. The reference set and the
// martingale's streaming state (reference non-conformity scores, sorted
// copy, sliding log-bet window) are serialised directly — the bets are
// history that Fit would destroy, so re-fitting on restore is not an
// option. The k-d tree / LOF tables are NOT serialised: buildMeasure
// re-derives them deterministically from the reference set.
func (d *Detector) Snapshot() ([]byte, error) {
	var b checkpoint.Buf
	b.Uint8(snapshotTag)
	b.Uint8(uint8(d.cfg.Measure))
	b.Int(d.cfg.MartingaleWindow)
	b.Bool(d.ref != nil)
	if d.ref == nil {
		return b.Bytes(), nil
	}
	b.Float64Rows(d.ref)
	b.Float64s(d.refNC)
	b.Float64s(d.sortedNC)
	b.Int(d.ncN)
	b.Float64s(d.logBets)
	b.Int(d.betPos)
	b.Int(d.betN)
	return b.Bytes(), nil
}

// Restore implements checkpoint.Snapshotter.
func (d *Detector) Restore(data []byte) error {
	r := checkpoint.NewRBuf(data)
	if err := detector.CheckTag(r, snapshotTag); err != nil {
		return err
	}
	if Measure(r.Uint8()) != d.cfg.Measure {
		return detector.ErrBadSnapshot // snapshot from a different measure
	}
	if r.Int() != d.cfg.MartingaleWindow {
		return detector.ErrBadSnapshot
	}
	fitted := r.Bool()
	if !fitted {
		if err := r.Close(); err != nil {
			return err
		}
		d.ref, d.median, d.index, d.lof = nil, nil, nil, nil
		d.refNC, d.sortedNC, d.logBets = nil, nil, nil
		d.ncN, d.betPos, d.betN = 0, 0, 0
		return nil
	}
	ref := r.Float64Rows()
	refNC := r.Float64s()
	sortedNC := r.Float64s()
	ncN := r.Int()
	logBets := r.Float64s()
	betPos := r.Int()
	betN := r.Int()
	if err := r.Close(); err != nil {
		return err
	}
	if len(ref) == 0 || len(refNC) != len(ref) || ncN != len(refNC) ||
		len(sortedNC) > len(refNC) ||
		len(logBets) != d.cfg.MartingaleWindow ||
		betPos < 0 || betPos >= len(logBets) ||
		betN < 0 || betN > len(logBets) {
		return detector.ErrBadSnapshot
	}
	dim := len(ref[0])
	for _, row := range ref {
		if len(row) != dim {
			return detector.ErrBadSnapshot
		}
	}
	d.ref = ref
	d.refNC = refNC
	d.sortedNC = sortedNC
	d.ncN = ncN
	d.logBets = logBets
	d.betPos = betPos
	d.betN = betN
	return d.buildMeasure(dim)
}
