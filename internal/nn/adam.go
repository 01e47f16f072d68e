package nn

import (
	"math"
	"slices"

	"github.com/navarchos/pdm/internal/mat"
)

// Adam is the Adam optimiser (Kingma & Ba) over a parameter set. It owns
// one contiguous arena — weights, gradients and both moment vectors,
// each in params order — so a step is one kernel call, which also
// clears the gradients, whatever the number of tensors.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// Legacy pins Step to the original scalar update loop. The
	// mat.AdamStep kernel is bit-identical to it (the SIMD lanes replay
	// the same IEEE operation sequence), so the flag exists purely to
	// keep the LegacyFitKernels oracle on the pre-kernel fit path.
	Legacy     bool
	w, g, m, v []float64
	t          int
	// bc[t-1] holds step t's bias corrections 1-β1^t and 1-β2^t, for
	// the betas in bcBetas. Step fills it lazily with the expression it
	// used to evaluate every step, two math.Pow calls, and Reset keeps it:
	// a refit replays the same step numbers.
	bc      [][2]float64
	bcBetas [2]float64
}

// NewAdam builds an optimiser for params with the given learning rate
// and standard defaults β1=0.9, β2=0.999, ε=1e-8. It moves every
// tensor's weights into its arena and re-points the Param's W and G at
// their slots (gradients cleared; an earlier optimiser is detached).
func NewAdam(params []*Param, lr float64) *Adam {
	n := 0
	for _, p := range params {
		n += len(p.W)
	}
	arena := make([]float64, 4*n)
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		w: arena[:n:n], g: arena[n : 2*n : 2*n], m: arena[2*n : 3*n : 3*n], v: arena[3*n:]}
	off := 0
	for _, p := range params {
		end := off + len(p.W)
		copy(a.w[off:end], p.W)
		p.W, p.G = a.w[off:end:end], a.g[off:end:end]
		off = end
	}
	return a
}

// Reset returns the optimiser to its just-built state — moments, step
// count and gradients cleared, weights untouched — so a refit can reuse
// the arena.
func (a *Adam) Reset() {
	clear(a.g)
	clear(a.m)
	clear(a.v)
	a.t = 0
}

// Step applies one update from the accumulated gradients and clears
// them (mat.AdamStep does both in one pass).
func (a *Adam) Step() {
	a.t++
	if betas := [2]float64{a.Beta1, a.Beta2}; betas != a.bcBetas {
		a.bc, a.bcBetas = a.bc[:0], betas
	}
	for len(a.bc) < a.t {
		if len(a.bc) == cap(a.bc) {
			// Doubling from 64 entries: a warm optimiser's next step
			// rarely grows the table.
			a.bc = slices.Grow(a.bc, max(len(a.bc), 64))
		}
		t := float64(len(a.bc) + 1)
		a.bc = append(a.bc, [2]float64{1 - math.Pow(a.Beta1, t), 1 - math.Pow(a.Beta2, t)})
	}
	bc1, bc2 := a.bc[a.t-1][0], a.bc[a.t-1][1]
	if !a.Legacy {
		mat.AdamStep(a.w, a.g, a.m, a.v, a.Beta1, a.Beta2, bc1, bc2, a.LR, a.Eps)
	} else {
		for j, g := range a.g {
			a.m[j] = a.Beta1*a.m[j] + (1-a.Beta1)*g
			a.v[j] = a.Beta2*a.v[j] + (1-a.Beta2)*g*g
			mh := a.m[j] / bc1
			vh := a.v[j] / bc2
			a.w[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		clear(a.g)
	}
}

// MSELoss returns the mean squared error between pred and target along
// with the gradient dL/dpred (already divided by the element count), in
// a fresh matrix and by the scalar loop MSELossInto's kernel replays.
func MSELoss(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	grad := mat.NewMatrix(pred.Rows, pred.Cols)
	n := float64(len(pred.Data))
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// MSELossInto is the allocation-free MSELoss: it writes the gradient
// into grad (reshaped to pred's dimensions) and returns the loss with
// grad. The gradient is element-wise and the loss one in-order sum
// (mat.SquaredErrorGrad), identical to MSELoss.
func MSELossInto(grad, pred, target *mat.Matrix) (float64, *mat.Matrix) {
	grad.EnsureShape(pred.Rows, pred.Cols)
	sum := mat.SquaredErrorGrad(grad.Data, pred.Data, target.Data[:len(pred.Data)])
	return sum / float64(len(pred.Data)), grad
}
