package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// The activations share one shape: an element-wise map on Forward and an
// element-wise gate on Backward. The default fast path writes into
// layer-owned scratch (zero allocations once warm); the math is
// element-wise, so fast and legacy outputs are bit-identical.

// copyOf returns a copy of src for Tanh to rewrite in place: a fresh
// matrix on the legacy path, the layer-owned scratch (grown once)
// otherwise.
func copyOf(legacy bool, scratch, src *mat.Matrix) *mat.Matrix {
	if legacy {
		return src.Clone()
	}
	out := scratch.EnsureShape(src.Rows, src.Cols)
	copy(out.Data, src.Data)
	return out
}

// ReLU is the rectified linear activation.
//
// The fast path makes one pass each way and takes no branch on the
// data: Forward writes each element's keep word — all ones, or zero
// where the input is below zero — and the input ANDed with it, and
// Backward ANDs the gradient with the same word. The words select the
// bits the legacy path's compare-and-store does (a clamped element and
// a gated gradient are +0; NaN and -0 inputs are kept), so both paths
// are bit-identical, and a sign pattern the predictor cannot learn
// costs nothing.
type ReLU struct {
	mask    []bool   // legacy path
	keep    []uint64 // fast path
	legacy  bool
	out, dx mat.Matrix
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *mat.Matrix) *mat.Matrix {
	if r.legacy {
		return r.forwardLegacy(x)
	}
	out := r.out.EnsureShape(x.Rows, x.Cols)
	if cap(r.keep) < len(x.Data) {
		r.keep = make([]uint64, len(x.Data))
	}
	r.keep = r.keep[:len(x.Data)]
	keep, o := r.keep, out.Data[:len(x.Data)]
	for i, v := range x.Data {
		var k uint64
		if !(v < 0) {
			k = ^uint64(0)
		}
		keep[i] = k
		o[i] = math.Float64frombits(math.Float64bits(v) & k)
	}
	return out
}

func (r *ReLU) forwardLegacy(x *mat.Matrix) *mat.Matrix {
	out := x.Clone()
	if cap(r.mask) < len(out.Data) {
		r.mask = make([]bool, len(out.Data))
	}
	r.mask = r.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v < 0 {
			out.Data[i] = 0
			r.mask[i] = false
		} else {
			r.mask[i] = true
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *mat.Matrix) *mat.Matrix {
	if r.legacy {
		out := grad.Clone()
		for i := range out.Data {
			if !r.mask[i] {
				out.Data[i] = 0
			}
		}
		return out
	}
	out := r.dx.EnsureShape(grad.Rows, grad.Cols)
	keep, o := r.keep[:len(grad.Data)], out.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		o[i] = math.Float64frombits(math.Float64bits(g) & keep[i])
	}
	return out
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	y       *mat.Matrix
	legacy  bool
	out, dx mat.Matrix
}

// NewTanh returns a Tanh layer.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (t *Tanh) Forward(x *mat.Matrix) *mat.Matrix {
	out := copyOf(t.legacy, &t.out, x)
	for i, v := range out.Data {
		out.Data[i] = math.Tanh(v)
	}
	t.y = out
	return out
}

// Backward implements Layer.
func (t *Tanh) Backward(grad *mat.Matrix) *mat.Matrix {
	out := copyOf(t.legacy, &t.dx, grad)
	for i := range out.Data {
		y := t.y.Data[i]
		out.Data[i] *= 1 - y*y
	}
	return out
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }
