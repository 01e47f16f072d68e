package nn

import (
	"math"
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
)

// SelfAttention is multi-head scaled dot-product self-attention over a
// sequence: the input matrix's rows are sequence positions, its columns
// the model dimension. Dim must be divisible by Heads.
//
// The default fast path runs every head product — scores, value mix and
// their four gradients — as one strided mat.Product each, reading the
// head's column slice of Q/K/V in place; the kernel's k-ordered
// accumulation reproduces the legacy scalar loops bit for bit, and
// every intermediate lives in layer-owned scratch, so a warm layer
// allocates nothing per call.
type SelfAttention struct {
	Dim, Heads, dk int
	wq, wk, wv, wo *Linear

	legacy bool

	// caches
	x       *mat.Matrix
	q, k, v *mat.Matrix
	attn    []*mat.Matrix // per head: seq×seq softmax weights
	concat  *mat.Matrix

	// fast-path scratch, grown once
	attnS      []*mat.Matrix
	concatS    mat.Matrix
	kT, vT     mat.Matrix // Kᵀ / Vᵀ (Dim×seq): a head's rows are the B operand of its score products
	dAttn      mat.Matrix
	dQ, dK, dV mat.Matrix

	// inference scratch for AttendLast, disjoint from the training
	// caches above so streaming scores cannot clobber an in-flight
	// forward/backward pair
	infK, infV mat.Matrix // every window's keys and values
	infQ, infC mat.Matrix // windows×Dim: each last row's query and head-concatenated mix
	infS       mat.Matrix // windows·Heads×seq: each last row's attention weights, head by head
}

// NewSelfAttention builds a multi-head self-attention block.
func NewSelfAttention(dim, heads int, rng *rand.Rand) *SelfAttention {
	if heads < 1 || dim%heads != 0 {
		panic("nn: SelfAttention dim must be divisible by heads")
	}
	return &SelfAttention{
		Dim:   dim,
		Heads: heads,
		dk:    dim / heads,
		wq:    NewLinear(dim, dim, rng),
		wk:    NewLinear(dim, dim, rng),
		wv:    NewLinear(dim, dim, rng),
		wo:    NewLinear(dim, dim, rng),
	}
}

// Forward implements Layer.
func (a *SelfAttention) Forward(x *mat.Matrix) *mat.Matrix {
	if a.legacy {
		return a.forwardLegacy(x)
	}
	a.x = x
	a.q = a.wq.Forward(x)
	a.k = a.wk.Forward(x)
	a.v = a.wv.Forward(x)
	seq := x.Rows
	if len(a.attnS) < a.Heads {
		a.attnS = make([]*mat.Matrix, a.Heads)
		for h := range a.attnS {
			a.attnS[h] = &mat.Matrix{}
		}
	}
	a.attn = a.attnS[:a.Heads]
	a.concat = a.concatS.EnsureShape(seq, a.Dim)
	kT := a.k.TransposeInto(&a.kT)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		// scores = Qh Kh^T * scale, accumulated over the head's dk
		// columns in order like the legacy row-row dots, then softmax
		// per row in the legacy loop's order.
		attn := a.attn[h].EnsureShape(seq, seq)
		(&mat.Product{Rows: seq, Inner: a.dk, Width: seq, A: a.q.Data[off:], ARow: a.Dim, AK: 1,
			B: kT.Data[off*seq:], LdB: seq, Out: attn.Data, LdOut: seq}).Eval()
		mat.SoftmaxRows(attn.Data, seq, scale)
		// out_h = attn · Vh, written straight into the concat slot.
		(&mat.Product{Rows: seq, Inner: seq, Width: a.dk, A: attn.Data, ARow: seq, AK: 1,
			B: a.v.Data[off:], LdB: a.Dim, Out: a.concat.Data[off:], LdOut: a.Dim}).Eval()
	}
	return a.wo.Forward(a.concat)
}

func (a *SelfAttention) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	a.x = x
	a.q = a.wq.Forward(x)
	a.k = a.wk.Forward(x)
	a.v = a.wv.Forward(x)
	seq := x.Rows
	a.attn = make([]*mat.Matrix, a.Heads)
	a.concat = mat.NewMatrix(seq, a.Dim)
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		// scores = Qh Kh^T * scale, softmax per row.
		attn := mat.NewMatrix(seq, seq)
		for i := 0; i < seq; i++ {
			qi := a.q.Row(i)[off : off+a.dk]
			srow := attn.Row(i)
			maxv := math.Inf(-1)
			for j := 0; j < seq; j++ {
				kj := a.k.Row(j)[off : off+a.dk]
				var s float64
				for t := 0; t < a.dk; t++ {
					s += qi[t] * kj[t]
				}
				s *= scale
				srow[j] = s
				if s > maxv {
					maxv = s
				}
			}
			var sum float64
			for j := range srow {
				srow[j] = math.Exp(srow[j] - maxv)
				sum += srow[j]
			}
			inv := 1 / sum
			for j := range srow {
				srow[j] *= inv
			}
		}
		a.attn[h] = attn
		// out_h = attn · Vh, written into the concat slot.
		for i := 0; i < seq; i++ {
			orow := a.concat.Row(i)[off : off+a.dk]
			arow := attn.Row(i)
			for j := 0; j < seq; j++ {
				w := arow[j]
				if w == 0 {
					continue
				}
				vj := a.v.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					orow[t] += w * vj[t]
				}
			}
		}
	}
	return a.wo.Forward(a.concat)
}

// Backward implements Layer.
func (a *SelfAttention) Backward(grad *mat.Matrix) *mat.Matrix {
	seq := a.x.Rows
	dConcat := a.wo.Backward(grad)
	var dQ, dK, dV *mat.Matrix
	if a.legacy {
		dQ = mat.NewMatrix(seq, a.Dim)
		dK = mat.NewMatrix(seq, a.Dim)
		dV = mat.NewMatrix(seq, a.Dim)
		a.backwardHeadsLegacy(dConcat, dQ, dK, dV)
	} else {
		// Every head product writes its whole column slice, so the
		// gradient blocks need no clearing.
		dQ = a.dQ.EnsureShape(seq, a.Dim)
		dK = a.dK.EnsureShape(seq, a.Dim)
		dV = a.dV.EnsureShape(seq, a.Dim)
		a.backwardHeads(dConcat, dQ, dK, dV)
	}
	dx := a.wq.Backward(dQ)
	dxk := a.wk.Backward(dK)
	dxv := a.wv.Backward(dV)
	for i := range dx.Data {
		dx.Data[i] += dxk.Data[i] + dxv.Data[i]
	}
	return dx
}

// backwardHeads is the fast head backward: four strided products per
// head around the softmax gradient. Each replays one loop nest of
// backwardHeadsLegacy with the same per-element accumulation order —
// dAttn over the head's columns, dV over the rows of dOut, dQ and dK
// over the scaled softmax gradient with its exact zeros skipped — so
// the result is bit-identical to it.
func (a *SelfAttention) backwardHeads(dConcat, dQ, dK, dV *mat.Matrix) {
	seq := a.x.Rows
	scale := 1 / math.Sqrt(float64(a.dk))
	dS := a.dAttn.EnsureShape(seq, seq)
	vT := a.v.TransposeInto(&a.vT)
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		attn := a.attn[h]
		// dAttn = dOut_h · Vh^T ; dV_h = attn^T · dOut_h.
		(&mat.Product{Rows: seq, Inner: a.dk, Width: seq, A: dConcat.Data[off:], ARow: a.Dim, AK: 1,
			B: vT.Data[off*seq:], LdB: seq, Out: dS.Data, LdOut: seq}).Eval()
		(&mat.Product{Rows: seq, Inner: seq, Width: a.dk, A: attn.Data, ARow: 1, AK: seq,
			B: dConcat.Data[off:], LdB: a.Dim, Out: dV.Data[off:], LdOut: a.Dim}).Eval()
		// Softmax backward per row, scaled: dS = attn ⊙ (dAttn - rowsum(dAttn ⊙ attn)) * scale.
		for i := 0; i < seq; i++ {
			arow := attn.Row(i)
			drow := dS.Row(i)
			var dot float64
			for j := range drow {
				dot += drow[j] * arow[j]
			}
			for j := range drow {
				drow[j] = arow[j] * (drow[j] - dot) * scale
			}
		}
		// dQ_h = dS · Kh ; dK_h = dS^T · Qh.
		(&mat.Product{Rows: seq, Inner: seq, Width: a.dk, A: dS.Data, ARow: seq, AK: 1,
			B: a.k.Data[off:], LdB: a.Dim, Out: dQ.Data[off:], LdOut: a.Dim, SkipZeros: true}).Eval()
		(&mat.Product{Rows: seq, Inner: seq, Width: a.dk, A: dS.Data, ARow: 1, AK: seq,
			B: a.q.Data[off:], LdB: a.Dim, Out: dK.Data[off:], LdOut: a.Dim, SkipZeros: true}).Eval()
	}
}

// backwardHeadsLegacy is the allocate-per-call scalar head backward of
// the legacy path. dQ, dK and dV arrive zeroed.
func (a *SelfAttention) backwardHeadsLegacy(dConcat, dQ, dK, dV *mat.Matrix) {
	seq := a.x.Rows
	scale := 1 / math.Sqrt(float64(a.dk))
	for h := 0; h < a.Heads; h++ {
		off := h * a.dk
		attn := a.attn[h]
		// dV += attn^T · dOut_h ; dAttn = dOut_h · Vh^T.
		dAttn := mat.NewMatrix(seq, seq)
		for i := 0; i < seq; i++ {
			doi := dConcat.Row(i)[off : off+a.dk]
			arow := attn.Row(i)
			darow := dAttn.Row(i)
			for j := 0; j < seq; j++ {
				vj := a.v.Row(j)[off : off+a.dk]
				dvj := dV.Row(j)[off : off+a.dk]
				var dot float64
				for t := 0; t < a.dk; t++ {
					dvj[t] += arow[j] * doi[t]
					dot += doi[t] * vj[t]
				}
				darow[j] = dot
			}
		}
		// Softmax backward per row: dS = attn ⊙ (dAttn - rowsum(dAttn ⊙ attn)).
		for i := 0; i < seq; i++ {
			arow := attn.Row(i)
			darow := dAttn.Row(i)
			var dot float64
			for j := 0; j < seq; j++ {
				dot += darow[j] * arow[j]
			}
			for j := 0; j < seq; j++ {
				darow[j] = arow[j] * (darow[j] - dot)
			}
		}
		// dQ += dS · Kh * scale ; dK += dS^T · Qh * scale.
		for i := 0; i < seq; i++ {
			darow := dAttn.Row(i)
			qi := a.q.Row(i)[off : off+a.dk]
			dqi := dQ.Row(i)[off : off+a.dk]
			for j := 0; j < seq; j++ {
				ds := darow[j] * scale
				if ds == 0 {
					continue
				}
				kj := a.k.Row(j)[off : off+a.dk]
				dkj := dK.Row(j)[off : off+a.dk]
				for t := 0; t < a.dk; t++ {
					dqi[t] += ds * kj[t]
					dkj[t] += ds * qi[t]
				}
			}
		}
	}
}

// Params implements Layer.
func (a *SelfAttention) Params() []*Param {
	var out []*Param
	out = append(out, a.wq.Params()...)
	out = append(out, a.wk.Params()...)
	out = append(out, a.wv.Params()...)
	out = append(out, a.wo.Params()...)
	return out
}

// PositionalEncoding adds fixed sinusoidal position information to a
// sequence (rows = positions). It has no parameters. The fast path
// computes the encoding table once and replays it by addition; the table
// entries come from the same expression the legacy path evaluates, so
// both paths add identical values.
type PositionalEncoding struct {
	Dim    int
	legacy bool
	pe     mat.Matrix
	out    mat.Matrix
}

// NewPositionalEncoding returns the standard sinusoidal encoder.
func NewPositionalEncoding(dim int) *PositionalEncoding { return &PositionalEncoding{Dim: dim} }

// peAt is the sinusoidal table entry for one (position, channel) pair.
func (p *PositionalEncoding) peAt(pos, j int) float64 {
	angle := float64(pos) / math.Pow(10000, float64(2*(j/2))/float64(p.Dim))
	if j%2 == 0 {
		return math.Sin(angle)
	}
	return math.Cos(angle)
}

// Forward implements Layer.
func (p *PositionalEncoding) Forward(x *mat.Matrix) *mat.Matrix {
	if p.legacy {
		out := x.Clone()
		for pos := 0; pos < out.Rows; pos++ {
			row := out.Row(pos)
			for j := 0; j < out.Cols; j++ {
				row[j] += p.peAt(pos, j)
			}
		}
		return out
	}
	p.ensureTable(x.Rows, x.Cols)
	out := p.out.EnsureShape(x.Rows, x.Cols)
	for pos := 0; pos < x.Rows; pos++ {
		row := out.Row(pos)
		xrow := x.Row(pos)
		perow := p.pe.Row(pos)
		for j := range row {
			row[j] = xrow[j] + perow[j]
		}
	}
	return out
}

// Backward implements Layer (identity gradient).
func (p *PositionalEncoding) Backward(grad *mat.Matrix) *mat.Matrix { return grad }

// Params implements Layer.
func (p *PositionalEncoding) Params() []*Param { return nil }

// Residual wraps a layer with a skip connection: y = x + f(x).
type Residual struct {
	Inner  Layer
	legacy bool
	out    mat.Matrix
	dout   mat.Matrix
}

// NewResidual wraps inner with a skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward implements Layer.
func (r *Residual) Forward(x *mat.Matrix) *mat.Matrix {
	return r.sum(&r.out, r.Inner.Forward(x), x)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *mat.Matrix) *mat.Matrix {
	return r.sum(&r.dout, r.Inner.Backward(grad), grad)
}

// sum returns inner + skip: in one pass into the layer-owned scratch,
// or on the legacy path as a fresh copy of inner with skip added.
func (r *Residual) sum(scratch, inner, skip *mat.Matrix) *mat.Matrix {
	if r.legacy {
		out := inner.Clone()
		for i := range out.Data {
			out.Data[i] += skip.Data[i]
		}
		return out
	}
	out := scratch.EnsureShape(inner.Rows, inner.Cols)
	mat.Add(out.Data, inner.Data, skip.Data[:len(out.Data)])
	return out
}

// Params implements Layer.
func (r *Residual) Params() []*Param { return r.Inner.Params() }
