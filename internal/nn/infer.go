package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// Row-block inference kernels.
//
// Forward/Backward exist for training: every layer caches whatever its
// backward pass needs, and every layer maps the whole sequence even when
// the consumer only reads one output row. Streaming detection needs
// neither — the TranAD scorer reads exactly each window's last position,
// and all of the model's layers except self-attention act row-wise — so
// each layer additionally exposes a cache-free evaluator over a block of
// rows here. Every mat kernel computes a row's bits independently of how
// many rows share the call, and the evaluators replay the fast Forward
// path's per-row operation sequence (same kernels, same reduction
// orders), so an evaluator's row is bit-identical to that row of a full
// Forward; the kernel-equivalence tests in the tranad package pin this
// down against the legacy path.
//
// The evaluators write into caller-owned buffers (or layer-owned
// inference scratch disjoint from the training caches) and allocate
// nothing once warm.

// Apply computes the dense map out = b + x·W for rows samples without
// touching the Forward cache, through the same mat.DenseFwd kernel call
// the fast Forward path makes. len(x) must be rows·In and len(out)
// rows·Out.
func (l *Linear) Apply(rows int, x, out []float64) {
	mat.DenseFwd(rows, l.In, l.Out, x, l.b.W, l.w.W, out)
}

// Apply normalises each of the rows Dim-wide rows of x with the layer's
// gain and bias: out = xhat·gain + bias with xhat = (x - mean) /
// sqrt(var + eps), through the mat kernels the fast Forward path runs
// (one lane per row for the sums), so the bits match a full Forward of
// the same rows at every dispatch level.
func (l *LayerNorm) Apply(rows int, x, out []float64) {
	l.infMean = rowScratch(l.infMean, rows)
	l.infInv = rowScratch(l.infInv, rows)
	mat.NormMoments(x, l.Dim, l.Eps, l.infMean, l.infInv)
	mat.NormRows(x, l.gain.W, l.bias.W, out, nil, l.infMean, l.infInv)
}

// Rows returns the first n positions of the sinusoidal table at width
// cols, row-major (n·cols values), growing the layer's cached table as
// needed (the same lazily built table Forward replays by addition). The
// returned slice is owned by the layer and must not be modified.
func (p *PositionalEncoding) Rows(n, cols int) []float64 {
	p.ensureTable(n, cols)
	return p.pe.Data[:n*cols]
}

// ensureTable grows the cached encoding table to at least rows×cols.
// Entries come from peAt, the same expression the legacy path evaluates
// inline, so table replay and legacy addition add identical values.
func (p *PositionalEncoding) ensureTable(rows, cols int) {
	if p.pe.Rows >= rows && p.pe.Cols == cols {
		return
	}
	if p.pe.Rows > rows {
		rows = p.pe.Rows
	}
	p.pe.EnsureShape(rows, cols)
	for pos := 0; pos < rows; pos++ {
		row := p.pe.Row(pos)
		for j := 0; j < cols; j++ {
			row[j] = p.peAt(pos, j)
		}
	}
}

// AttendLast evaluates the attention block for the LAST row of each of
// windows stacked seq-row windows: x holds windows·seq rows of Dim, and
// row m of out (windows rows of Dim) receives what row seq-1 of
// Forward(window m) would hold, bit for bit. Keys and values are
// projected for every row of every window (each last query attends over
// its window's), but the query projection, softmax, value mix and output
// projection run for one row per window. The score dots accumulate in
// the k-order of the fast path's score product, every window's head rows
// go through one SoftmaxRows call, which replays its scale/max/exp/
// normalise loop order per row, and the value mix accumulates in j-order.
// Inference scratch is disjoint from the training caches.
func (a *SelfAttention) AttendLast(windows, seq int, x, out []float64) {
	rows, dim := windows*seq, a.Dim
	k := a.infK.EnsureShape(rows, dim).Data
	v := a.infV.EnsureShape(rows, dim).Data
	a.wk.Apply(rows, x, k)
	a.wv.Apply(rows, x, v)
	// Every window's last row, strided through x: the query projection is
	// DenseFwd's product with the A rows seq·Dim apart.
	q := a.infQ.EnsureShape(windows, dim).Data
	(&mat.Product{Rows: windows, Inner: dim, Width: dim, A: x[(seq-1)*dim:], ARow: seq * dim, AK: 1,
		B: a.wq.w.W, LdB: dim, Init: a.wq.b.W, Out: q, LdOut: dim, SkipZeros: true}).Eval()
	s := a.infS.EnsureShape(windows*a.Heads, seq).Data
	for m := 0; m < windows; m++ {
		qm, km := q[m*dim:(m+1)*dim], k[m*seq*dim:(m+1)*seq*dim]
		for h := 0; h < a.Heads; h++ {
			off := h * a.dk
			scoreDots(qm[off:off+a.dk], km[off:], dim, s[(m*a.Heads+h)*seq:(m*a.Heads+h+1)*seq])
		}
	}
	// Every window's head rows in one call, so their exps overlap.
	mat.SoftmaxRows(s, seq, 1/math.Sqrt(float64(a.dk)))
	concat := a.infC.EnsureShape(windows, dim).Data
	for m := 0; m < windows; m++ {
		for h := 0; h < a.Heads; h++ {
			off := h * a.dk
			(&mat.Product{Rows: 1, Inner: seq, Width: a.dk, A: s[(m*a.Heads+h)*seq:], AK: 1,
				B: v[m*seq*dim+off:], LdB: dim, Out: concat[m*dim+off:], LdOut: a.dk}).Eval()
		}
	}
	a.wo.Apply(windows, concat, out)
}

// scoreDots writes s[j] = q·k[j·ld:j·ld+len(q)] for every j, each dot one
// in-order sum from +0. Four rows' sums run side by side so their add
// chains overlap; each keeps its own order.
func scoreDots(q, k []float64, ld int, s []float64) {
	n := len(q)
	j := 0
	for ; j+4 <= len(s); j += 4 {
		k0, k1 := k[j*ld:][:n], k[(j+1)*ld:][:n]
		k2, k3 := k[(j+2)*ld:][:n], k[(j+3)*ld:][:n]
		var d0, d1, d2, d3 float64
		for t, qv := range q {
			d0 += qv * k0[t]
			d1 += qv * k1[t]
			d2 += qv * k2[t]
			d3 += qv * k3[t]
		}
		s[j], s[j+1], s[j+2], s[j+3] = d0, d1, d2, d3
	}
	for ; j < len(s); j++ {
		kj := k[j*ld:][:n]
		var dot float64
		for t, qv := range q {
			dot += qv * kj[t]
		}
		s[j] = dot
	}
}
