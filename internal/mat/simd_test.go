package mat

import (
	"math"
	"math/rand"
	"testing"
)

// addScaledScalar is the reference axpy: the exact loop the SIMD kernel
// must reproduce bit-for-bit.
func addScaledScalar(dst []float64, alpha float64, x []float64) {
	for i := range dst {
		dst[i] += alpha * x[i]
	}
}

// adamStepScalar is the reference Adam update (mirrors the historic
// nn.Adam loop).
func adamStepScalar(w, g, m, v []float64, beta1, beta2, bc1, bc2, lr, eps float64) {
	for j := range w {
		gj := g[j]
		m[j] = beta1*m[j] + (1-beta1)*gj
		v[j] = beta2*v[j] + (1-beta2)*gj*gj
		mh := m[j] / bc1
		vh := v[j] / bc2
		w[j] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestAddScaledBitIdentical drives AddScaled (whatever kernel the CPU
// dispatches to) against the scalar reference at every length across
// the SIMD blocking boundaries.
func TestAddScaledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 67; n++ {
		x := randVec(rng, n)
		dst := randVec(rng, n)
		want := append([]float64(nil), dst...)
		alpha := rng.NormFloat64()
		AddScaled(dst, alpha, x)
		addScaledScalar(want, alpha, x)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d i=%d: AddScaled=%x scalar=%x (simd=%s)",
					n, i, math.Float64bits(dst[i]), math.Float64bits(want[i]), SIMDMode())
			}
		}
	}
}

// TestAdamStepBitIdentical checks the vectorised Adam update replays
// the scalar operation sequence exactly, including denormal-ish tiny
// gradients and the sqrt/div tail, at a bc1 below 1 and at the bc1 of
// exactly 1 whose division the kernel leaves out — there with NaN, both
// infinities, -0 and denormals planted in m, the operands x/1 == x has
// to hold for — and that it leaves g cleared. It runs under native and
// forced-scalar dispatch.
func TestAdamStepBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, bc1 := range []float64{0.19, 1} {
			for n := 0; n <= 67; n++ {
				w, g := randVec(rng, n), randVec(rng, n)
				m, v := randVec(rng, n), randVec(rng, n)
				if bc1 == 1 {
					m = plantedVec(rng, n, true)
				}
				for i := range v {
					v[i] = math.Abs(v[i]) * 1e-3 // v must stay non-negative
					if i%7 == 0 {
						g[i] *= 1e-150
					}
					if bc1 == 1 && i%5 == 0 {
						// m' = 0.9·m + 0.1·g keeps a planted m, its -0
						// under a -0 gradient included.
						g[i] = math.Copysign(0, float64(i%10-1))
					}
				}
				w2 := append([]float64(nil), w...)
				g2 := append([]float64(nil), g...)
				m2 := append([]float64(nil), m...)
				v2 := append([]float64(nil), v...)
				AdamStep(w, g, m, v, 0.9, 0.999, bc1, 0.0299, 1e-3, 1e-8)
				adamStepScalar(w2, g2, m2, v2, 0.9, 0.999, bc1, 0.0299, 1e-3, 1e-8)
				assertSameBits(t, "w", w, w2)
				assertSameBits(t, "m", m, m2)
				assertSameBits(t, "v", v, v2)
				for i, gi := range g {
					if math.Float64bits(gi) != 0 {
						t.Errorf("g[%d] = %v after the step, want +0", i, gi)
					}
				}
				if t.Failed() {
					t.Fatalf("n=%d bc1=%v", n, bc1)
				}
			}
		}
	})
}

func BenchmarkAddScaled(b *testing.B) {
	x := randVec(rand.New(rand.NewSource(1)), 256)
	dst := make([]float64, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AddScaled(dst, 1.0000001, x)
	}
}

// BenchmarkAdamStep has a round-number leg and the arena the shipped
// TranAD configuration steps — 1 908 weights at dim 6 — early in a fit,
// where bc1 = 1-0.9^t is below 1, and from step 356 on, where it is
// exactly 1 and the kernel leaves the m/bc1 division out. The gradient
// is rewritten every iteration because the step clears it.
func BenchmarkAdamStep(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		bc1  float64
	}{{"4096", 4096, 0.1}, {"shipped/step100", 1908, 1 - math.Pow(0.9, 100)}, {"shipped/step356", 1908, 1 - math.Pow(0.9, 356)}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			w, g0 := randVec(rng, c.n), randVec(rng, c.n)
			g, m, v := make([]float64, c.n), randVec(rng, c.n), make([]float64, c.n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(g, g0)
				AdamStep(w, g, m, v, 0.9, 0.999, c.bc1, 0.01, 1e-3, 1e-8)
			}
		})
	}
}

// TestLinFwdBitIdentical checks the fused forward kernel against the
// scalar zero-skipping loop, bit for bit, including rows with exact
// zeros (post-ReLU sparsity) and widths that exercise the Go fallback.
func TestLinFwdBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, shape := range [][2]int{{1, 8}, {3, 16}, {10, 48}, {48, 48}, {5, 7}, {7, 24}, {0, 8}} {
		in, out := shape[0], shape[1]
		x := randVec(rng, in)
		for i := range x {
			if i%3 == 0 {
				x[i] = 0 // exercise the zero skip
			}
		}
		b, w := randVec(rng, out), randVec(rng, in*out)
		got := make([]float64, out)
		want := make([]float64, out)
		DenseFwd(1, in, out, x, b, w, got)
		copy(want, b)
		for k, v := range x {
			if v == 0 {
				continue
			}
			for j := 0; j < out; j++ {
				want[j] += v * w[k*out+j]
			}
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("in=%d out=%d: out[%d]=%x want %x (simd=%s)",
					in, out, j, math.Float64bits(got[j]), math.Float64bits(want[j]), SIMDMode())
			}
		}
	}
}
