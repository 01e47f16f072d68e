package nn

import (
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
)

// Linear is a fully connected layer: y = xW + b with W of shape in×out.
//
// The default fast path hands each pass to one whole-layer mat kernel
// call (mat.DenseFwd, mat.DenseBwd) writing into layer-owned scratch:
// zero allocations once the scratch is warm, and bit-identical outputs
// to the legacy allocate-per-call path at any shape (the kernels visit
// every reduction index in the order the scalar loops did, at every
// SIMD dispatch level). The legacy path is retained behind
// SetLegacyKernels as the oracle of the equivalence tests.
type Linear struct {
	In, Out int
	w, b    *Param
	x       *mat.Matrix // cached input
	legacy  bool
	out, dx mat.Matrix // scratch, grown once
	wT      []float64  // Wᵀ scratch of Backward
}

// NewLinear creates a Glorot-initialised dense layer using rng.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, w: newParam(in * out), b: newParam(out), wT: make([]float64, in*out)}
	l.w.fanIn, l.w.fanOut = in, out
	l.w.init(rng)
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.forwardLegacy(x)
	}
	l.x = x
	out := l.out.EnsureShape(x.Rows, l.Out)
	mat.DenseFwd(x.Rows, l.In, l.Out, x.Data, l.b.W, l.w.W, out.Data)
	return out
}

func (l *Linear) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	l.x = x
	out := mat.NewMatrix(x.Rows, l.Out)
	for i := 0; i < x.Rows; i++ {
		xi := x.Row(i)
		oi := out.Row(i)
		copy(oi, l.b.W)
		for k := 0; k < l.In; k++ {
			v := xi[k]
			if v == 0 {
				continue
			}
			wrow := l.w.W[k*l.Out : (k+1)*l.Out]
			for j := range oi {
				oi[j] += v * wrow[j]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(grad *mat.Matrix) *mat.Matrix {
	if l.legacy {
		return l.backwardLegacy(grad)
	}
	dx := l.dx.EnsureShape(l.x.Rows, l.In)
	mat.DenseBwd(grad.Rows, l.In, l.Out, l.x.Data, grad.Data, l.w.W, l.wT, l.w.G, l.b.G, dx.Data)
	return dx
}

func (l *Linear) backwardLegacy(grad *mat.Matrix) *mat.Matrix {
	dx := mat.NewMatrix(l.x.Rows, l.In)
	for i := 0; i < grad.Rows; i++ {
		gi := grad.Row(i)
		xi := l.x.Row(i)
		di := dx.Row(i)
		// db += g ; dW += x^T g ; dx = g W^T
		for j := 0; j < l.Out; j++ {
			l.b.G[j] += gi[j]
		}
		for k := 0; k < l.In; k++ {
			wrow := l.w.W[k*l.Out : (k+1)*l.Out]
			grow := l.w.G[k*l.Out : (k+1)*l.Out]
			xv := xi[k]
			var acc float64
			for j := 0; j < l.Out; j++ {
				grow[j] += xv * gi[j]
				acc += gi[j] * wrow[j]
			}
			di[k] = acc
		}
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.w, l.b} }
