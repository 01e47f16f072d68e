package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// LayerNorm normalises each row to zero mean and unit variance and
// applies a learned per-feature gain and bias.
//
// The fast path reuses layer-owned scratch for the output, the cached
// x-hat and the inverse deviations, reads the parameter slices once per
// pass instead of once per element, and makes one pass over a row where
// the legacy path makes two (recomputing g·gain, the same bits, in place
// of the legacy path's per-row dxhat vector). Every reduction keeps its
// order and every element its operation sequence, so fast and legacy
// are bit-identical.
type LayerNorm struct {
	Dim   int
	Eps   float64
	gain  *Param
	bias  *Param
	xhat  *mat.Matrix
	isdev []float64 // 1/std per row

	legacy  bool
	out, dx mat.Matrix
	xhatS   mat.Matrix
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
	if l.legacy {
		return l.forwardLegacy(x)
	}
	out := l.out.EnsureShape(x.Rows, x.Cols)
	l.xhat = l.xhatS.EnsureShape(x.Rows, x.Cols)
	if cap(l.isdev) < x.Rows {
		l.isdev = make([]float64, x.Rows)
	}
	l.isdev = l.isdev[:x.Rows]
	n := x.Cols
	gain, bias := l.gain.W[:n], l.bias.W[:n]
	for i := range l.isdev {
		row := x.Data[i*n : (i+1)*n]
		m, inv := l.rowMoments(row)
		l.isdev[i] = inv
		xh, o := l.xhat.Data[i*n:(i+1)*n], out.Data[i*n:(i+1)*n]
		for j, xv := range row {
			h := (xv - m) * inv
			xh[j] = h
			o[j] = h*gain[j] + bias[j]
		}
	}
	return out
}

func (l *LayerNorm) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	out := mat.NewMatrix(x.Rows, x.Cols)
	l.xhat = mat.NewMatrix(x.Rows, x.Cols)
	l.isdev = make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		m := mat.Mean(row)
		inv := 1 / math.Sqrt(mat.Variance(row)+l.Eps)
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
	if l.legacy {
		return l.backwardLegacy(grad)
	}
	dx := l.dx.EnsureShape(grad.Rows, grad.Cols)
	dim := l.Dim
	gain, gainG, biasG := l.gain.W[:dim], l.gain.G[:dim], l.bias.G[:dim]
	n := float64(dim)
	for i, inv := range l.isdev[:grad.Rows] {
		g, xh := grad.Data[i*dim:(i+1)*dim], l.xhat.Data[i*dim:(i+1)*dim]
		// Param grads, and the two row sums of dxhat = g * gain.
		var sumDx, sumDxXh float64
		for j, gj := range g {
			h := xh[j]
			gainG[j] += gj * h
			biasG[j] += gj
			dh := float64(gj * gain[j]) // rounded, as below
			sumDx += dh
			sumDxXh += dh * h
		}
		// Standard layer-norm input gradient. The mean of dxhat is one
		// value per row; xh·sumDxXh is divided per element, as the
		// legacy expression divides it; and the conversion rounds
		// g·gain as the legacy path's store does, where a compiler
		// would otherwise fuse it into the subtraction (arm64).
		mean := sumDx / n
		d := dx.Data[i*dim : (i+1)*dim]
		for j, gj := range g {
			d[j] = (float64(gj*gain[j]) - mean - xh[j]*sumDxXh/n) * inv
		}
	}
	return dx
}

func (l *LayerNorm) backwardLegacy(grad *mat.Matrix) *mat.Matrix {
	dx := mat.NewMatrix(grad.Rows, grad.Cols)
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
		dxhat := make([]float64, l.Dim)
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
