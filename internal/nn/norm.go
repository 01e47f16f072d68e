package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// LayerNorm normalises each row to zero mean and unit variance and
// applies a learned per-feature gain and bias.
//
// The fast path reuses layer-owned scratch for the output, the cached
// x-hat and the per-row scalars, and runs each pass over the whole block
// of rows through the mat layer-norm kernels: the in-order row sums
// (mat.NormMoments, mat.NormGradSums, one lane per row, four rows at a
// time), the element-wise rows (mat.NormRows, mat.NormGradRows) and the
// parameter gradients (mat.NormParamGrads, one lane per column). Every
// reduction keeps its order and every element its operation sequence, so
// fast and legacy are bit-identical.
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
	// per-row scratch: the means in Forward, the two gradient sums in
	// Backward
	mean, sumDx, sumDxXh []float64
}

// NewLayerNorm returns a layer norm over rows of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	l := &LayerNorm{Dim: dim, Eps: 1e-5, gain: newParam(dim), bias: newParam(dim)}
	l.gain.fill = 1
	l.gain.init(nil)
	return l
}

// rowScratch returns s resliced to n elements, grown if it is short.
func rowScratch(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Forward implements Layer.
func (l *LayerNorm) Forward(x *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.forwardLegacy(x)
	}
	out := l.out.EnsureShape(x.Rows, x.Cols)
	l.xhat = l.xhatS.EnsureShape(x.Rows, x.Cols)
	l.isdev = rowScratch(l.isdev, x.Rows)
	l.mean = rowScratch(l.mean, x.Rows)
	mat.NormMoments(x.Data, x.Cols, l.Eps, l.mean, l.isdev)
	mat.NormRows(x.Data, l.gain.W[:x.Cols], l.bias.W[:x.Cols], out.Data, l.xhat.Data, l.mean, l.isdev)
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

// Backward implements Layer.
func (l *LayerNorm) Backward(grad *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.backwardLegacy(grad)
	}
	dx := l.dx.EnsureShape(grad.Rows, grad.Cols)
	dim := l.Dim
	g, xh, gain := grad.Data, l.xhat.Data[:len(grad.Data)], l.gain.W[:dim]
	mat.NormParamGrads(l.gain.G[:dim], l.bias.G[:dim], g, xh)
	// Standard layer-norm input gradient from the two row sums of
	// dxhat = g·gain: the mean of dxhat is one value per row, and
	// xh·sumDxXh is divided per element, as the legacy expression
	// divides it.
	l.sumDx = rowScratch(l.sumDx, grad.Rows)
	l.sumDxXh = rowScratch(l.sumDxXh, grad.Rows)
	mat.NormGradSums(g, xh, gain, l.sumDx, l.sumDxXh)
	mat.NormGradRows(g, gain, xh, dx.Data, l.sumDx, l.sumDxXh, l.isdev[:grad.Rows])
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
