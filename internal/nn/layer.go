// Package nn is a small pure-Go neural-network kernel with explicit
// backpropagation: dense layers, activations, layer normalisation,
// multi-head self-attention and the Adam optimiser. It exists to support
// the TranAD-style transformer reconstruction detector without any
// external numerical dependency.
//
// Layers operate on mat.Matrix values whose rows are either batch
// samples (dense nets) or sequence positions (attention). Forward caches
// whatever Backward needs; a layer therefore handles one
// forward/backward pair at a time and is not safe for concurrent use.
package nn

import (
	"math"
	"math/rand"

	"github.com/navarchos/pdm/internal/mat"
)

// Param is one learnable tensor with its gradient accumulator, flattened
// row-major. W and G start as the tensor's own slices; NewAdam re-points
// them into the optimiser's contiguous arena, so layers must read them
// through the Param on every pass and never cache the slices.
type Param struct {
	W []float64 // weights
	G []float64 // gradient, same length
	// Initialisation recipe, replayed by InitParams: Glorot-uniform over
	// fanIn/fanOut when fanIn > 0, else the constant fill.
	fanIn, fanOut int
	fill          float64
}

func newParam(n int) *Param { return &Param{W: make([]float64, n), G: make([]float64, n)} }

// init (re)draws the tensor's initial weights.
func (p *Param) init(rng *rand.Rand) {
	if p.fanIn == 0 {
		for i := range p.W {
			p.W[i] = p.fill
		}
		return
	}
	scale := math.Sqrt(6 / float64(p.fanIn+p.fanOut))
	for i := range p.W {
		p.W[i] = (rng.Float64()*2 - 1) * scale
	}
}

// InitParams re-initialises every tensor in place, drawing from rng in
// params order. For a net whose layers were constructed front to back
// that is the order their constructors drew in, so a net re-initialised
// from a fresh rng holds exactly the weights a newly built one would —
// which lets a cold refit reuse the net, its scratch and its optimiser
// arena instead of reallocating them.
func InitParams(params []*Param, rng *rand.Rand) {
	for _, p := range params {
		p.init(rng)
	}
}

// Layer is a differentiable module.
type Layer interface {
	// Forward maps input to output, caching intermediates for Backward.
	Forward(x *mat.Matrix) *mat.Matrix
	// Backward receives dL/d(output) and returns dL/d(input), adding
	// parameter gradients into Params.
	Backward(grad *mat.Matrix) *mat.Matrix
	// Params returns the layer's learnable parameters (may be empty).
	Params() []*Param
}

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x *mat.Matrix) *mat.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *mat.Matrix) *mat.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SetLegacyKernels switches layer (recursively, through Sequential,
// Residual and SelfAttention wrappers) between the default scratch-reuse
// fit kernels and the legacy allocate-per-call implementations. Both
// paths produce bit-identical outputs; the legacy path exists as the
// oracle of the kernel-equivalence tests.
func SetLegacyKernels(layer Layer, legacy bool) {
	switch l := layer.(type) {
	case *Sequential:
		for _, inner := range l.Layers {
			SetLegacyKernels(inner, legacy)
		}
	case *Residual:
		l.legacy = legacy
		SetLegacyKernels(l.Inner, legacy)
	case *SelfAttention:
		l.legacy = legacy
		SetLegacyKernels(l.wq, legacy)
		SetLegacyKernels(l.wk, legacy)
		SetLegacyKernels(l.wv, legacy)
		SetLegacyKernels(l.wo, legacy)
	case *Linear:
		l.legacy = legacy
	case *LayerNorm:
		l.legacy = legacy
	case *PositionalEncoding:
		l.legacy = legacy
	case *ReLU:
		l.legacy = legacy
	}
}
