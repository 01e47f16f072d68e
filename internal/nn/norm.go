package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// LayerNorm normalises each row to zero mean and unit variance and
// applies a learned per-feature gain and bias.
//
// The fast path reuses layer-owned scratch for the output, the cached
// x-hat, the inverse deviations and the per-row dxhat work vector (the
// legacy path allocated dxhat once per row per Backward). The reduction
// orders are unchanged, so fast and legacy are bit-identical.
type LayerNorm struct {
	Dim   int
	Eps   float64
	gain  *Param
	bias  *Param
	xhat  *mat.Matrix
	isdev []float64 // 1/std per row

	legacy   bool
	out, dx  mat.Matrix
	xhatS    mat.Matrix
	dxhatRow []float64
}

// NewLayerNorm returns a layer norm over rows of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	l := &LayerNorm{Dim: dim, Eps: 1e-5, gain: newParam(dim), bias: newParam(dim)}
	l.gain.fill = 1
	l.gain.init(nil)
	return l
}

// Forward implements Layer.
func (l *LayerNorm) Forward(x *mat.Matrix) *mat.Matrix {
	var out *mat.Matrix
	if l.legacy {
		out = mat.NewMatrix(x.Rows, x.Cols)
		l.xhat = mat.NewMatrix(x.Rows, x.Cols)
		l.isdev = make([]float64, x.Rows)
	} else {
		out = l.out.EnsureShape(x.Rows, x.Cols)
		l.xhat = l.xhatS.EnsureShape(x.Rows, x.Cols)
		if cap(l.isdev) < x.Rows {
			l.isdev = make([]float64, x.Rows)
		}
		l.isdev = l.isdev[:x.Rows]
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		var m, inv float64
		if l.legacy {
			m = mat.Mean(row)
			inv = 1 / math.Sqrt(mat.Variance(row)+l.Eps)
		} else {
			m, inv = l.rowMoments(row)
		}
		l.isdev[i] = inv
		xh := l.xhat.Row(i)
		o := out.Row(i)
		for j, xv := range row {
			xh[j] = (xv - m) * inv
			o[j] = xh[j]*l.gain.W[j] + l.bias.W[j]
		}
	}
	return out
}

// rowMoments returns a row's mean and inverse deviation 1/sqrt(var+eps):
// the reductions mat.Mean and mat.Variance perform (identical order, so
// identical bits), fused into two passes over the row instead of three.
// They are in-order sums and must stay scalar.
func (l *LayerNorm) rowMoments(row []float64) (m, inv float64) {
	for _, xv := range row {
		m += xv
	}
	m /= float64(len(row))
	var ss float64
	for _, xv := range row {
		d := xv - m
		ss += d * d
	}
	return m, 1 / math.Sqrt(ss/float64(len(row))+l.Eps)
}

// Backward implements Layer.
func (l *LayerNorm) Backward(grad *mat.Matrix) *mat.Matrix {
	var dx *mat.Matrix
	if l.legacy {
		dx = mat.NewMatrix(grad.Rows, grad.Cols)
	} else {
		dx = l.dx.EnsureShape(grad.Rows, grad.Cols)
		if cap(l.dxhatRow) < l.Dim {
			l.dxhatRow = make([]float64, l.Dim)
		}
	}
	n := float64(l.Dim)
	for i := 0; i < grad.Rows; i++ {
		g := grad.Row(i)
		xh := l.xhat.Row(i)
		// Param grads.
		for j := 0; j < l.Dim; j++ {
			l.gain.G[j] += g[j] * xh[j]
			l.bias.G[j] += g[j]
		}
		// dxhat = g * gain; standard layer-norm input gradient.
		var sumDx, sumDxXh float64
		var dxhat []float64
		if l.legacy {
			dxhat = make([]float64, l.Dim)
		} else {
			dxhat = l.dxhatRow[:l.Dim]
		}
		for j := 0; j < l.Dim; j++ {
			dxhat[j] = g[j] * l.gain.W[j]
			sumDx += dxhat[j]
			sumDxXh += dxhat[j] * xh[j]
		}
		inv := l.isdev[i]
		d := dx.Row(i)
		for j := 0; j < l.Dim; j++ {
			d[j] = (dxhat[j] - sumDx/n - xh[j]*sumDxXh/n) * inv
		}
	}
	return dx
}

// Params implements Layer.
func (l *LayerNorm) Params() []*Param { return []*Param{l.gain, l.bias} }
