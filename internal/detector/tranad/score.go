package tranad

import (
	"github.com/navarchos/pdm/internal/detector"
	"github.com/navarchos/pdm/internal/mat"
)

// Scoring, a run of consecutive samples at a time.
//
// A score reads only the window's LAST position of both decoder
// outputs, and every layer of the model except self-attention maps rows
// independently. The scorer exploits that: the input projection and
// positional encoding are evaluated for every row of a window (the last
// query attends over every position's keys and values), attention runs
// through nn.AttendLast, and everything downstream — both norms, the
// FFN, decoder 1, the fusion layer and decoder 2 — is evaluated for the
// last row only. The arithmetic a score performs is therefore a strict
// operation-for-operation subset of the full-window pass the legacy
// scorer makes, and the result bit-identical to it for roughly 1/w of
// the post-attention work.
//
// A run of B samples makes B windows, and each stage is one call over
// all of their rows: one projection of the B new rows, one key and one
// value projection over every window's rows, one SoftmaxRows over every
// head of every window, one call per dense layer and norm over the B
// last rows. Every mat kernel computes a row's bits independently of how
// many rows share the call, so a score does not depend on the run it
// was part of: ScoreInto is a run of one.
//
// The input projection is cached per ring slot: a slot's projection
// only changes when the slot is rewritten, so a run pays for one
// projected row per new sample, and a window reaching back into the
// samples before the run reads the cache. The cache holds each slot
// twice (rows slot and slot+Window), so any Window consecutive slots are
// one block. Fit empties the window, so no stale projection is read
// before its slot is rewritten; Restore projects the restored window.

// ScoreInto implements detector.IntoScorer: Score without the per-call
// result allocation. dst must have length 1.
func (d *Detector) ScoreInto(x, dst []float64) error {
	d.one[0] = x
	err := d.ScoreRunInto(d.one[:], dst)
	d.one[0] = nil
	return err
}

// ScoreRunInto implements detector.RunScorer: it scores the samples of
// xs in order into dst (one score each), exactly as len(xs) successive
// ScoreInto calls would. A sample of the wrong width fails the run
// before anything is scored.
func (d *Detector) ScoreRunInto(xs [][]float64, dst []float64) error {
	if d.net == nil {
		return detector.ErrNotFitted
	}
	if len(dst) != len(xs)*d.Channels() {
		return detector.ErrDimension
	}
	for _, x := range xs {
		if len(x) != d.dim {
			return detector.ErrDimension
		}
	}
	if d.cfg.LegacyFitKernels {
		for i, x := range xs {
			dst[i] = d.scoreLegacy(x)
		}
		return nil
	}
	if len(xs) > 0 {
		d.scoreRun(xs, dst)
	}
	return nil
}

// scoreLegacy is the pre-optimisation scorer: the window is copied into
// a fresh matrix and every layer allocates per call. It is the oracle
// the default scorer is tested bit-identical against.
func (d *Detector) scoreLegacy(x []float64) float64 {
	w := len(d.ring)
	d.ring[d.pos], _ = mat.ApplyStandardization(x, d.means, d.stds) // width checked by ScoreRunInto
	d.pos = (d.pos + 1) % w
	if d.n < w {
		d.n++
	}
	if d.n < w {
		return 0
	}
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

// scoreRun is the default scorer for a non-empty run of samples of the
// detector's width.
func (d *Detector) scoreRun(xs [][]float64, dst []float64) {
	w, dm, dim, b := len(d.ring), d.cfg.DModel, d.dim, len(xs)
	s := &d.sc
	d.ensureInferScratch()

	// Standardise the run (widths checked by ScoreRunInto) and project
	// its rows once.
	std := s.std.EnsureShape(b, dim)
	for i, x := range xs {
		mat.ApplyStandardizationInto(std.Row(i), x, d.means, d.stds)
	}
	lin := s.lin.EnsureShape(b, dm)
	d.net.inf.encLin.Apply(b, std.Data, lin.Data)

	// Sample i's window is run rows i-w+1..i, a negative row -k being the
	// ring's k-th newest sample; it scores once w samples have been seen,
	// which the run's samples from first on have. The ones before score 0.
	first := min(b, max(0, w-1-d.n))
	clear(dst[:first])
	if m := b - first; m > 0 {
		d.scoreWindows(first, m, std, lin, dst[first:])
	}

	// The run's newest w samples (at most) become the ring.
	for i := max(0, b-w); i < b; i++ {
		slot := (d.pos + i) % w
		if d.ring[slot] == nil {
			d.ring[slot] = make([]float64, dim)
		}
		copy(d.ring[slot], std.Row(i))
		copy(d.linBuf[slot*dm:], lin.Row(i))
		copy(d.linBuf[(slot+w)*dm:], lin.Row(i))
	}
	d.pos = (d.pos + b) % w
	d.n = min(d.n+b, w)
}

// scoreWindows scores the m windows ending at run rows first..first+m-1
// into dst, given the run's standardised rows and their projections; the
// rows before the run come from the ring's projection cache.
func (d *Detector) scoreWindows(first, m int, std, lin *mat.Matrix, dst []float64) {
	w, dm, dim := len(d.ring), d.cfg.DModel, d.dim
	s := &d.sc
	inf := &d.net.inf

	// l1 = PositionalEncoding(Linear(window)) for every window, from the
	// cached projections: a window's rows from before the run are
	// consecutive ring slots, one block of the doubled cache, and the
	// rest one block of lin.
	pe := inf.pe.Rows(w, dm)
	l1 := s.l1.EnsureShape(m*w, dm)
	for wi := 0; wi < m; wi++ {
		i := first + wi
		win := l1.Data[wi*w*dm : (wi+1)*w*dm]
		at := 0
		if before := w - 1 - i; before > 0 {
			slot := (d.pos - before + w) % w
			at = before * dm
			addRows(win[:at], d.linBuf[slot*dm:], pe)
		}
		addRows(win[at:], lin.Data[max(0, i-w+1)*dm:], pe[at:])
	}

	// Encoder, last rows: attention residual, norm, FFN residual, norm.
	attnOut := s.attnOut.EnsureShape(m, dm)
	inf.attn.AttendLast(m, w, l1.Data, attnOut.Data)
	res1 := s.res1.EnsureShape(m, dm)
	for wi := 0; wi < m; wi++ {
		a, l, r := attnOut.Row(wi), l1.Row(wi*w+w-1), res1.Row(wi)
		for j := range r {
			r[j] = a[j] + l[j]
		}
	}
	ln1 := s.ln1.EnsureShape(m, dm)
	inf.ln1.Apply(m, res1.Data, ln1.Data)
	ffnH := s.ffnH.EnsureShape(m, 2*dm)
	inf.ffn1.Apply(m, ln1.Data, ffnH.Data)
	reluRows(ffnH.Data)
	ffnOut := s.ffnOut.EnsureShape(m, dm)
	inf.ffn2.Apply(m, ffnH.Data, ffnOut.Data)
	res2 := s.res2.EnsureShape(m, dm)
	for j := range res2.Data {
		res2.Data[j] = ffnOut.Data[j] + ln1.Data[j]
	}
	z := s.z.EnsureShape(m, dm)
	inf.ln2.Apply(m, res2.Data, z.Data)

	// Decoder 1, last rows.
	d1h := s.d1h.EnsureShape(m, dm)
	inf.dec1a.Apply(m, z.Data, d1h.Data)
	reluRows(d1h.Data)
	o1 := s.o1.EnsureShape(m, dim)
	inf.dec1b.Apply(m, d1h.Data, o1.Data)

	// Decoder 2, last rows: fuse([z | focus]) then ReLU then project.
	x2 := s.x2.EnsureShape(m, dm+dim)
	for wi := 0; wi < m; wi++ {
		row, o, last := x2.Row(wi), o1.Row(wi), std.Row(first+wi)
		copy(row[:dm], z.Row(wi))
		for c := 0; c < dim; c++ {
			diff := o[c] - last[c]
			row[dm+c] = diff * diff
		}
	}
	fuseOut := s.fuseOut.EnsureShape(m, dm)
	d.net.fuse.Apply(m, x2.Data, fuseOut.Data)
	reluRows(fuseOut.Data)
	o2 := s.o2.EnsureShape(m, dim)
	inf.dec2b.Apply(m, fuseOut.Data, o2.Data)

	for wi := range dst {
		p, q, last := o1.Row(wi), o2.Row(wi), std.Row(first+wi)
		var mse float64
		for c := 0; c < dim; c++ {
			d1 := p[c] - last[c]
			d2 := q[c] - last[c]
			mse += (d1*d1 + d2*d2) / 2
		}
		dst[wi] = mse / float64(dim)
	}
}

// addRows writes dst[j] = cached[j] + pe[j] over dst: a window's rows
// after input projection and positional encoding.
func addRows(dst, cached, pe []float64) {
	cached, pe = cached[:len(dst)], pe[:len(dst)]
	for j := range dst {
		dst[j] = cached[j] + pe[j]
	}
}

// reluRows clamps negatives to zero in place through the ReLU layer's
// kernel, without its keep words — element-wise, so it matches the
// layer bit for bit (-0 and NaN pass: neither compares below zero).
func reluRows(rows []float64) { mat.ReLU(rows, nil, rows) }

// ensureInferScratch sizes the projection cache for the current ring.
// Safe to call every run; it only does work when the shape changed.
func (d *Detector) ensureInferScratch() {
	if n := 2 * len(d.ring) * d.cfg.DModel; len(d.linBuf) != n {
		d.linBuf = make([]float64, n)
	}
}
