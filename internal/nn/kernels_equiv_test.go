package nn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/navarchos/pdm/internal/mat"
)

// buildTestNet assembles the same block structure tranad uses: dense →
// positional encoding → residual attention → layer norm → residual MLP →
// layer norm, so the equivalence test covers every layer type.
func buildTestNet(rng *rand.Rand) *Sequential {
	dim := 12
	return NewSequential(
		NewLinear(6, dim, rng),
		NewPositionalEncoding(dim),
		NewResidual(NewSelfAttention(dim, 2, rng)),
		NewLayerNorm(dim),
		NewResidual(NewSequential(
			NewLinear(dim, 2*dim, rng),
			NewReLU(),
			NewLinear(2*dim, dim, rng),
		)),
		NewLayerNorm(dim),
		NewLinear(dim, 6, rng),
		NewTanh(),
	)
}

// TestFastKernelsBitIdenticalToLegacy trains two identically seeded nets
// — one on the legacy allocate-per-call path, one on the scratch-reuse
// kernels — through several Adam steps and requires Float64bits-equal
// outputs and weights at every step. This is the determinism contract
// DESIGN.md §11 documents: the kernel rewrite must not move a single
// bit of the optimisation trajectory.
func TestFastKernelsBitIdenticalToLegacy(t *testing.T) {
	legacyNet := buildTestNet(rand.New(rand.NewSource(7)))
	fastNet := buildTestNet(rand.New(rand.NewSource(7)))
	SetLegacyKernels(legacyNet, true)

	legacyOpt := NewAdam(legacyNet.Params(), 0.01)
	fastOpt := NewAdam(fastNet.Params(), 0.01)

	dataRng := rand.New(rand.NewSource(8))
	grad := mat.NewMatrix(0, 0)
	for step := 0; step < 5; step++ {
		x := mat.NewMatrix(8, 6)
		target := mat.NewMatrix(8, 6)
		for i := range x.Data {
			x.Data[i] = dataRng.NormFloat64()
			target.Data[i] = dataRng.NormFloat64()
		}

		legacyOut := legacyNet.Forward(x.Clone())
		fastOut := fastNet.Forward(x.Clone())
		for i := range legacyOut.Data {
			if math.Float64bits(legacyOut.Data[i]) != math.Float64bits(fastOut.Data[i]) {
				t.Fatalf("step %d: forward output %d differs: legacy %v fast %v",
					step, i, legacyOut.Data[i], fastOut.Data[i])
			}
		}

		lossL, gradL := MSELoss(legacyOut, target)
		lossF, gradF := MSELossInto(grad, fastOut, target)
		if math.Float64bits(lossL) != math.Float64bits(lossF) {
			t.Fatalf("step %d: loss differs: %v vs %v", step, lossL, lossF)
		}

		legacyNet.Backward(gradL)
		fastNet.Backward(gradF)
		legacyOpt.Step()
		fastOpt.Step()

		lp, fp := legacyNet.Params(), fastNet.Params()
		for pi := range lp {
			for j := range lp[pi].W {
				if math.Float64bits(lp[pi].W[j]) != math.Float64bits(fp[pi].W[j]) {
					t.Fatalf("step %d: param %d weight %d differs: legacy %v fast %v",
						step, pi, j, lp[pi].W[j], fp[pi].W[j])
				}
			}
		}
	}
}

// TestLayerNormFastMatchesLegacy holds the fast LayerNorm — its sums four
// rows at a time, its mat row kernels — to the legacy loops bit for bit
// at every row count from 1 to 9 (whole groups of four and the rows left
// over) and the widths the shipped model and its wider test shape use,
// through two forward/backward passes so the parameter gradients
// accumulate onto earlier ones. In the second pass every third row has
// a NaN or an infinity planted in its input and in its gradient, which
// must poison exactly the same outputs on both paths.
func TestLayerNormFastMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, width := range []int{6, 12, 15, 24} {
		for rows := 1; rows <= 9; rows++ {
			fast, legacy := NewLayerNorm(width), NewLayerNorm(width)
			legacy.legacy = true
			for i := range fast.gain.W {
				fast.gain.W[i] = 1 + rng.NormFloat64()/4
				fast.bias.W[i] = rng.NormFloat64() / 4
			}
			copy(legacy.gain.W, fast.gain.W)
			copy(legacy.bias.W, fast.bias.W)
			for pass := 0; pass < 2; pass++ {
				x, g := mat.NewMatrix(rows, width), mat.NewMatrix(rows, width)
				for i := range x.Data {
					x.Data[i], g.Data[i] = rng.NormFloat64()*3, rng.NormFloat64()
				}
				for r := 1; pass == 1 && r < rows; r += 3 {
					x.Data[r*width+r%width] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r%3]
					g.Data[r*width+(r+1)%width] = []float64{math.Inf(-1), math.NaN()}[r%2]
				}
				same := func(what string, got, want []float64) {
					t.Helper()
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
							t.Fatalf("width=%d rows=%d pass=%d: %s[%d] = %v, legacy %v", width, rows, pass, what, i, got[i], want[i])
						}
					}
				}
				same("forward", fast.Forward(x).Data, legacy.Forward(x).Data)
				same("backward", fast.Backward(g).Data, legacy.Backward(g).Data)
				same("gain gradient", fast.gain.G, legacy.gain.G)
				same("bias gradient", fast.bias.G, legacy.bias.G)
			}
		}
	}
}

// BenchmarkLayerNorm runs the fast path's forward and backward passes at
// the shipped model's shape: the 8-row window, DModel 12.
func BenchmarkLayerNorm(b *testing.B) {
	const rows, width = 8, 12
	rng := rand.New(rand.NewSource(1))
	x, g := mat.NewMatrix(rows, width), mat.NewMatrix(rows, width)
	for i := range x.Data {
		x.Data[i], g.Data[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	l := NewLayerNorm(width)
	l.Forward(x)
	b.Run("forward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Forward(x)
		}
	})
	b.Run("backward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Backward(g)
		}
	})
}

// TestFastKernelsZeroSteadyStateAllocs checks the zero-allocation
// contract: once the scratch is warm, a full forward/backward/loss pass
// allocates nothing.
func TestFastKernelsZeroSteadyStateAllocs(t *testing.T) {
	net := buildTestNet(rand.New(rand.NewSource(9)))
	opt := NewAdam(net.Params(), 0.01)
	x := mat.NewMatrix(8, 6)
	target := mat.NewMatrix(8, 6)
	rng := rand.New(rand.NewSource(10))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	grad := mat.NewMatrix(0, 0)
	trainOnce := func() {
		out := net.Forward(x)
		_, g := MSELossInto(grad, out, target)
		net.Backward(g)
		opt.Step()
	}
	trainOnce() // warm the scratch
	// Sequential.Params allocates (it appends), so measure the training
	// step alone.
	if allocs := testing.AllocsPerRun(20, trainOnce); allocs != 0 {
		t.Fatalf("steady-state train step allocates %v times, want 0", allocs)
	}
}
