package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// Row-level inference kernels.
//
// Forward/Backward exist for training: every layer caches whatever its
// backward pass needs, and every layer maps the whole sequence even when
// the consumer only reads one output row. Streaming detection needs
// neither — the TranAD scoring hot path reads exactly the window's last
// position, and all of the model's layers except self-attention act
// row-wise — so each layer additionally exposes a cache-free single-row
// evaluator here. The evaluators replay the fast Forward path's exact
// per-row operation sequence (same kernels, same reduction orders), so a
// composition of ApplyRow calls is bit-identical to slicing that row out
// of a full Forward; the kernel-equivalence tests in the tranad package
// pin this down against the legacy path.
//
// ApplyRow/AttendLast write into caller-owned buffers (or layer-owned
// inference scratch disjoint from the training caches), allocate nothing
// once warm, and never touch the Forward caches — scoring a stream
// between deferred training steps cannot corrupt an in-flight
// forward/backward pair.

// Apply computes the dense map out = b + x·W for rows samples without
// touching the Forward cache, through the same mat.DenseFwd kernel call
// the fast Forward path makes. len(x) must be rows·In and len(out)
// rows·Out.
func (l *Linear) Apply(rows int, x, out []float64) {
	mat.DenseFwd(rows, l.In, l.Out, x, l.b.W, l.w.W, out)
}

// ApplyRow is Apply for one row.
func (l *Linear) ApplyRow(x, out []float64) { l.Apply(1, x, out) }

// ApplyRow normalises one row with the layer's gain and bias:
// out = xhat·gain + bias with xhat = (x - mean) / sqrt(var + eps), through
// the same mat kernels as the fast Forward path (one row of them), so the
// bits match a full Forward of the same row at every dispatch level.
func (l *LayerNorm) ApplyRow(x, out []float64) {
	var mean, inv [1]float64
	mat.NormMoments(x, len(x), l.Eps, mean[:], inv[:])
	mat.NormRows(x, l.gain.W, l.bias.W, out, nil, mean[:], inv[:])
}

// RowAt returns position pos of the sinusoidal table at width cols,
// growing the layer's cached table as needed (the same lazily built
// table Forward replays by addition). The returned slice is owned by
// the layer and must not be modified.
func (p *PositionalEncoding) RowAt(pos, cols int) []float64 {
	p.ensureTable(pos+1, cols)
	return p.pe.Row(pos)
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

// AttendLast evaluates the attention block for the LAST row of x only:
// keys and values are projected for every position (the last query
// attends over all of them), but the query projection, softmax, value
// mix and output projection run for one row instead of seq. out must
// have length Dim and receives what row seq-1 of Forward(x) would hold,
// bit for bit: the score dots accumulate in the k-order of the fast
// path's score product, the softmax replays its scale/max/exp/normalise loop
// order, and the value mix accumulates in j-order. Inference scratch is
// disjoint from the training caches.
func (a *SelfAttention) AttendLast(x *mat.Matrix, out []float64) {
	seq := x.Rows
	k := a.infK.EnsureShape(seq, a.Dim)
	v := a.infV.EnsureShape(seq, a.Dim)
	a.wk.Apply(seq, x.Data, k.Data)
	a.wv.Apply(seq, x.Data, v.Data)
	q, concat := a.infQ, a.infC
	a.wq.ApplyRow(x.Row(seq-1), q)
	if cap(a.infS) < a.Heads*seq {
		a.infS = make([]float64, a.Heads*seq)
	}
	s := a.infS[:a.Heads*seq]
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		qh := q[off : off+a.dk]
		for j := 0; j < seq; j++ {
			kj := k.Row(j)[off : off+a.dk]
			var dot float64
			for t, qv := range qh {
				dot += qv * kj[t]
			}
			s[h*seq+j] = dot
		}
	}
	// Every head's row in one call, so their exps overlap.
	mat.SoftmaxRows(s, seq, 1/math.Sqrt(float64(a.dk)))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		(&mat.Product{Rows: 1, Inner: seq, Width: a.dk, A: s[h*seq:], AK: 1,
			B: v.Data[off:], LdB: a.Dim, Out: concat[off:], LdOut: a.dk}).Eval()
	}
	a.wo.ApplyRow(concat, out)
}
