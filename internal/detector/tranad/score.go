package tranad

import (
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
)

// Per-record scoring.
//
// A score reads only the window's LAST position of both decoder
// outputs, and every layer of the model except self-attention maps rows
// independently. The default scorer exploits that: the input projection
// and positional encoding are evaluated for the whole window (the last
// query attends over every position's keys and values), attention runs
// through nn.AttendLast, and everything downstream — both norms, the
// FFN, decoder 1, the fusion layer and decoder 2 — is evaluated for the
// last row only, through the same fused row kernels the full Forward
// uses per row. The arithmetic a score performs is therefore a strict
// operation-for-operation subset of the full-window pass the legacy
// scorer makes, and the result bit-identical to it for roughly 1/w of
// the post-attention work.
//
// The input projection is additionally cached per ring slot: a slot's
// projection only changes when the slot is rewritten, so each record
// pays for one projected row, not w. Fit and Restore invalidate the
// cache wholesale (new weights, new ring).

// ScoreInto implements detector.IntoScorer: Score without the per-call
// result allocation. dst must have length 1.
func (d *Detector) ScoreInto(x, dst []float64) error {
	if d.net == nil {
		return detector.ErrNotFitted
	}
	if len(x) != d.dim || len(dst) != d.Channels() {
		return detector.ErrDimension
	}
	if d.cfg.LegacyFitKernels {
		std, err := mat.ApplyStandardization(x, d.means, d.stds)
		if err != nil {
			return err
		}
		d.ring[d.pos] = std
	} else {
		d.ensureInferScratch()
		// Standardise into the ring slot in place: the scoring path
		// allocates nothing once every slot exists.
		if d.ring[d.pos] == nil {
			d.ring[d.pos] = make([]float64, d.dim)
		}
		if _, err := mat.ApplyStandardizationInto(d.ring[d.pos], x, d.means, d.stds); err != nil {
			return err
		}
		d.linOK[d.pos] = false
	}
	d.pos = (d.pos + 1) % len(d.ring)
	if d.n < len(d.ring) {
		d.n++
	}
	if d.n < len(d.ring) {
		dst[0] = 0
		return nil
	}
	switch {
	case d.cfg.LegacyFitKernels:
		dst[0] = d.scoreLegacy()
	default:
		dst[0] = d.scoreLastRow()
	}
	return nil
}

// scoreLegacy is the pre-optimisation scorer: the window is copied into
// a fresh matrix and every layer allocates per call. It is the oracle
// the default scorer is tested bit-identical against.
func (d *Detector) scoreLegacy() float64 {
	w := len(d.ring)
	win := mat.NewMatrix(w, d.dim)
	for r := 0; r < w; r++ {
		copy(win.Row(r), d.ring[(d.pos+r)%w])
	}
	n := d.net
	z := n.enc.Forward(win)
	o1 := n.dec1.Forward(z)
	o2 := n.dec2.Forward(n.fuse.Forward(concatCols(z, focus(o1, win))))
	return lastRowMSE(o1, o2, win, d.dim)
}

// lastRowMSE is the legacy scorer's reduction: the averaged two-decoder
// squared reconstruction error of the window's last position.
func lastRowMSE(o1, o2, win *mat.Matrix, dim int) float64 {
	last := win.Rows - 1
	var mse float64
	for c := 0; c < dim; c++ {
		d1 := o1.At(last, c) - win.At(last, c)
		d2 := o2.At(last, c) - win.At(last, c)
		mse += (d1*d1 + d2*d2) / 2
	}
	return mse / float64(dim)
}

// scoreLastRow is the default scorer: full-window work only where the
// last position actually depends on it (input projection + positional
// encoding feeding attention's keys and values), single-row kernels
// everywhere else.
func (d *Detector) scoreLastRow() float64 {
	w := len(d.ring)
	dm := d.cfg.DModel
	s := &d.sc
	inf := &d.net.inf

	// l1 = PositionalEncoding(Linear(win)): project each ring slot at
	// most once, replay the cached rows with the position offset of this
	// rotation.
	l1 := s.l1.EnsureShape(w, dm)
	for r := 0; r < w; r++ {
		slot := (d.pos + r) % w
		if !d.linOK[slot] {
			inf.encLin.ApplyRow(d.ring[slot], d.linCache[slot])
			d.linOK[slot] = true
		}
		cached := d.linCache[slot]
		perow := inf.pe.RowAt(r, dm)
		lrow := l1.Row(r)
		for j := range lrow {
			lrow[j] = cached[j] + perow[j]
		}
	}

	last := w - 1
	// Encoder, last row: attention residual, norm, FFN residual, norm.
	inf.attn.AttendLast(l1, s.attnOut)
	l1last := l1.Row(last)
	for j := range s.res1 {
		s.res1[j] = s.attnOut[j] + l1last[j]
	}
	inf.ln1.ApplyRow(s.res1, s.ln1row)
	inf.ffn1.ApplyRow(s.ln1row, s.ffnH)
	reluRow(s.ffnH)
	inf.ffn2.ApplyRow(s.ffnH, s.ffnOut)
	for j := range s.res2 {
		s.res2[j] = s.ffnOut[j] + s.ln1row[j]
	}
	inf.ln2.ApplyRow(s.res2, s.zLast)

	// Decoder 1, last row.
	inf.dec1a.ApplyRow(s.zLast, s.d1h)
	reluRow(s.d1h)
	inf.dec1b.ApplyRow(s.d1h, s.o1)

	// Decoder 2, last row: fuse([z | focus]) then ReLU then project.
	winLast := d.ring[(d.pos+last)%w]
	copy(s.x2[:dm], s.zLast)
	for c := 0; c < d.dim; c++ {
		diff := s.o1[c] - winLast[c]
		s.x2[dm+c] = diff * diff
	}
	d.net.fuse.ApplyRow(s.x2, s.fuseOut)
	reluRow(s.fuseOut)
	inf.dec2b.ApplyRow(s.fuseOut, s.o2)

	var mse float64
	for c := 0; c < d.dim; c++ {
		d1 := s.o1[c] - winLast[c]
		d2 := s.o2[c] - winLast[c]
		mse += (d1*d1 + d2*d2) / 2
	}
	return mse / float64(d.dim)
}

// reluRow clamps negatives to zero in place — elementwise, so it
// matches the ReLU layer's copy-then-clamp bit for bit (including
// leaving -0 untouched, which compares as not-less-than zero).
func reluRow(row []float64) {
	for i, v := range row {
		if v < 0 {
			row[i] = 0
		}
	}
}

// ensureInferScratch sizes the last-row scoring buffers for the current
// fit. Safe to call every score; it only does work when the shape
// changed.
func (d *Detector) ensureInferScratch() {
	w := len(d.ring)
	dm := d.cfg.DModel
	if len(d.linCache) != w || len(d.sc.o1) != d.dim || len(d.sc.attnOut) != dm {
		d.linCache = make([][]float64, w)
		d.linOK = make([]bool, w)
		for i := range d.linCache {
			d.linCache[i] = make([]float64, dm)
		}
		d.sc.attnOut = make([]float64, dm)
		d.sc.res1 = make([]float64, dm)
		d.sc.ln1row = make([]float64, dm)
		d.sc.ffnH = make([]float64, 2*dm)
		d.sc.ffnOut = make([]float64, dm)
		d.sc.res2 = make([]float64, dm)
		d.sc.zLast = make([]float64, dm)
		d.sc.d1h = make([]float64, dm)
		d.sc.fuseOut = make([]float64, dm)
		d.sc.o1 = make([]float64, d.dim)
		d.sc.o2 = make([]float64, d.dim)
		d.sc.x2 = make([]float64, dm+d.dim)
	}
}

// resetInferCache drops every cached input projection (called when the
// weights or the ring are replaced under the cache).
func (d *Detector) resetInferCache() {
	for i := range d.linOK {
		d.linOK[i] = false
	}
}
