package nn

import (
	"math"

	"github.com/navarchos/pdm/internal/mat"
)

// The activations share one shape: an element-wise map on Forward and an
// element-wise gate on Backward. The default fast path writes into
// layer-owned scratch (zero allocations once warm); the math is
// element-wise, so fast and legacy outputs are bit-identical.

// copyOf returns a copy of src for an element-wise layer to rewrite in
// place: a fresh matrix on the legacy path, the layer-owned scratch
// (grown once) otherwise.
func copyOf(legacy bool, scratch, src *mat.Matrix) *mat.Matrix {
	if legacy {
		return src.Clone()
	}
	out := scratch.EnsureShape(src.Rows, src.Cols)
	copy(out.Data, src.Data)
	return out
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask    []bool
	legacy  bool
	out, dx mat.Matrix
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *mat.Matrix) *mat.Matrix {
	out := copyOf(r.legacy, &r.out, x)
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
	out := copyOf(r.legacy, &r.dx, grad)
	for i := range out.Data {
		if !r.mask[i] {
			out.Data[i] = 0
		}
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
