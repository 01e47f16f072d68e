package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/mat"
)

// numericalGradCheck verifies Backward against central finite
// differences of a scalar loss L = sum(out^2)/2 for both parameters and
// inputs.
func numericalGradCheck(t *testing.T, layer Layer, rows, cols int, seed int64, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := mat.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	loss := func() float64 {
		out := layer.Forward(x.Clone())
		var l float64
		for _, v := range out.Data {
			l += v * v / 2
		}
		return l
	}
	// Analytic gradients.
	for _, p := range layer.Params() {
		clear(p.G)
	}
	out := layer.Forward(x.Clone())
	gradOut := out.Clone() // dL/dout = out for L = sum(out^2)/2
	dx := layer.Backward(gradOut)

	// Input gradient check (sampled entries).
	const eps = 1e-5
	checkEntries := len(x.Data)
	if checkEntries > 20 {
		checkEntries = 20
	}
	for c := 0; c < checkEntries; c++ {
		i := rng.Intn(len(x.Data))
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := loss()
		x.Data[i] = orig - eps
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("input grad [%d]: analytic %v vs numeric %v", i, dx.Data[i], num)
		}
	}
	// Parameter gradient check (sampled entries). Recompute analytic
	// gradients freshly since loss() calls above overwrote caches.
	for _, p := range layer.Params() {
		clear(p.G)
	}
	out = layer.Forward(x.Clone())
	layer.Backward(out.Clone())
	for pi, p := range layer.Params() {
		n := len(p.W)
		samples := n
		if samples > 10 {
			samples = 10
		}
		for c := 0; c < samples; c++ {
			j := rng.Intn(n)
			orig := p.W[j]
			p.W[j] = orig + eps
			lp := loss()
			p.W[j] = orig - eps
			lm := loss()
			p.W[j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.G[j]) > tol*(1+math.Abs(num)) {
				t.Errorf("param %d grad [%d]: analytic %v vs numeric %v", pi, j, p.G[j], num)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	numericalGradCheck(t, NewLinear(4, 3, rng), 5, 4, 2, 1e-4)
}

func TestReLUGradients(t *testing.T) {
	numericalGradCheck(t, NewReLU(), 4, 6, 3, 1e-4)
}

func TestLayerNormGradients(t *testing.T) {
	numericalGradCheck(t, NewLayerNorm(6), 4, 6, 6, 1e-3)
}

func TestSelfAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	numericalGradCheck(t, NewSelfAttention(6, 2, rng), 5, 6, 8, 1e-3)
}

func TestResidualGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	numericalGradCheck(t, NewResidual(NewLinear(6, 6, rng)), 3, 6, 10, 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	seq := NewSequential(
		NewLinear(5, 8, rng),
		NewReLU(),
		NewLinear(8, 5, rng),
	)
	numericalGradCheck(t, seq, 4, 5, 12, 1e-4)
}

func TestPositionalEncoding(t *testing.T) {
	pe := NewPositionalEncoding(8)
	x := mat.NewMatrix(4, 8)
	out := pe.Forward(x)
	// Position 0: sin(0)=0 at even dims, cos(0)=1 at odd dims.
	if out.At(0, 0) != 0 || out.At(0, 1) != 1 {
		t.Errorf("pos 0 encoding = %v, %v", out.At(0, 0), out.At(0, 1))
	}
	// Different positions get different encodings.
	same := true
	for j := 0; j < 8; j++ {
		if out.At(1, j) != out.At(2, j) {
			same = false
		}
	}
	if same {
		t.Error("positions 1 and 2 have identical encodings")
	}
	// Identity gradient and no params.
	g := mat.NewMatrix(4, 8)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	back := pe.Backward(g)
	for i := range g.Data {
		if back.Data[i] != g.Data[i] {
			t.Fatal("positional encoding gradient not identity")
		}
	}
	if pe.Params() != nil {
		t.Error("positional encoding should have no params")
	}
}

func TestSelfAttentionPanicsOnBadHeads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dim not divisible by heads should panic")
		}
	}()
	NewSelfAttention(7, 2, rand.New(rand.NewSource(1)))
}

func TestMSELoss(t *testing.T) {
	pred, _ := mat.FromRows([][]float64{{1, 2}})
	target, _ := mat.FromRows([][]float64{{0, 4}})
	loss, grad := MSELoss(pred, target)
	// ((1)^2 + (2)^2)/2 = 2.5
	if math.Abs(loss-2.5) > 1e-12 {
		t.Errorf("loss = %v, want 2.5", loss)
	}
	// grad = 2*(pred-target)/n
	if grad.At(0, 0) != 1 || grad.At(0, 1) != -2 {
		t.Errorf("grad = %v", grad.Data)
	}
}

func TestAdamConvergesOnRegression(t *testing.T) {
	// Learn y = 2x1 - 3x2 + 1 with a linear layer.
	rng := rand.New(rand.NewSource(21))
	layer := NewLinear(2, 1, rng)
	opt := NewAdam(layer.Params(), 0.05)
	var finalLoss float64
	for epoch := 0; epoch < 400; epoch++ {
		x := mat.NewMatrix(16, 2)
		y := mat.NewMatrix(16, 1)
		for i := 0; i < 16; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			x.Set(i, 0, a)
			x.Set(i, 1, b)
			y.Set(i, 0, 2*a-3*b+1)
		}
		pred := layer.Forward(x)
		loss, grad := MSELoss(pred, y)
		finalLoss = loss
		layer.Backward(grad)
		opt.Step()
	}
	if finalLoss > 1e-3 {
		t.Errorf("final loss = %v, want < 1e-3", finalLoss)
	}
	// Weights close to the generator.
	w := layer.Params()[0].W
	b := layer.Params()[1].W
	if math.Abs(w[0]-2) > 0.05 || math.Abs(w[1]+3) > 0.05 || math.Abs(b[0]-1) > 0.05 {
		t.Errorf("learned w=%v b=%v, want [2 -3], [1]", w, b)
	}
}

// TestAdamBiasTableMatchesPow: the bias corrections Step reads from its
// table are the bits of the per-step math.Pow expressions, for every
// step a long fit takes, at both betas — through a Reset, which keeps
// the table, and after a beta change, which must rebuild it.
func TestAdamBiasTableMatchesPow(t *testing.T) {
	const steps = 5000
	p := newParam(1)
	a := NewAdam([]*Param{p}, 0.01)
	check := func(what string) {
		t.Helper()
		for i := 1; i <= steps; i++ {
			want := [2]float64{1 - math.Pow(a.Beta1, float64(i)), 1 - math.Pow(a.Beta2, float64(i))}
			got := a.bc[i-1]
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("%s: step %d beta%d correction %v, want %v", what, i, k+1, got[k], want[k])
				}
			}
		}
	}
	for i := 0; i < steps; i++ {
		a.Step()
	}
	check("first fit")
	a.Reset()
	for i := 0; i < steps; i++ {
		a.Step()
	}
	check("after Reset")
	a.Reset()
	a.Beta1, a.Beta2 = 0.8, 0.99
	for i := 0; i < steps; i++ {
		a.Step()
	}
	check("new betas")
}

func TestAutoencoderLearnsIdentityOnStructure(t *testing.T) {
	// A small autoencoder with a 2-unit bottleneck can reconstruct data
	// that lives on a 2D manifold in 4D.
	rng := rand.New(rand.NewSource(31))
	ae := NewSequential(
		NewLinear(4, 6, rng),
		NewReLU(),
		NewLinear(6, 2, rng),
		NewLinear(2, 6, rng),
		NewReLU(),
		NewLinear(6, 4, rng),
	)
	opt := NewAdam(ae.Params(), 0.01)
	sample := func() []float64 {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		return []float64{a, b, a + b, a - b}
	}
	var loss float64
	for epoch := 0; epoch < 600; epoch++ {
		rows := make([][]float64, 16)
		for i := range rows {
			rows[i] = sample()
		}
		x, _ := mat.FromRows(rows)
		pred := ae.Forward(x)
		var grad *mat.Matrix
		loss, grad = MSELoss(pred, x)
		ae.Backward(grad)
		opt.Step()
	}
	if loss > 0.05 {
		t.Errorf("autoencoder reconstruction loss = %v, want < 0.05", loss)
	}
}

// TestTranADStackGradients runs the numerical gradient check on the full
// encoder stack the TranAD detector uses (attention + layer norm +
// residual FFN), catching any interaction bug between the layers'
// backward passes.
func TestTranADStackGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dm := 8
	stack := NewSequential(
		NewLinear(4, dm, rng),
		NewPositionalEncoding(dm),
		NewResidual(NewSelfAttention(dm, 2, rng)),
		NewLayerNorm(dm),
		NewResidual(NewSequential(
			NewLinear(dm, 2*dm, rng),
			NewReLU(),
			NewLinear(2*dm, dm, rng),
		)),
		NewLayerNorm(dm),
		NewLinear(dm, 4, rng),
	)
	numericalGradCheck(t, stack, 6, 4, 78, 5e-3)
}
