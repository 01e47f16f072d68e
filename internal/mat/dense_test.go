package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The whole-layer kernels sit under every trained TranAD weight, score
// and checkpoint byte, so these tests assert Float64bits identity with
// the scalar loops the layers used to inline, over every shape across
// the strip boundaries, under native dispatch and with the SIMD kernels
// forced off (the Go fallback is what every non-amd64 build runs).

// dispatchModes runs fn under the CPU's native dispatch and again with
// AVX/FMA forced off.
func dispatchModes(t *testing.T, fn func(t *testing.T)) {
	t.Run("native", fn)
	t.Run("scalar", func(t *testing.T) {
		forceScalar(t)
		fn(t)
	})
}

// sameBits is the identity the kernels contract: equal bit patterns,
// with one carve-out — two NaNs are equal whatever their payload. IEEE
// 754 leaves the payload of an operation on two NaNs (and the sign of a
// generated one) to the implementation; x86 takes it from the first
// source operand, and the Go compiler is free to order the operands of
// a commutative scalar op either way, so the reference loop itself does
// not pin it.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// assertSameBits reports the first element of got that differs from
// want; the caller adds the shape and stops the test.
func assertSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Errorf("%s[%d] = %x (%v), scalar reference %x (%v) (simd=%s)",
				what, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i], SIMDMode())
			return
		}
	}
}

// plantedVec draws n normals and overwrites about one element in six
// with a value the kernels must not mishandle: either sign of zero (the
// forward zero-skip keys on them) and denormals always, NaN and either
// infinity only when nonFinite is set — a single NaN poisons every sum
// it touches, so the finite pass is the one that checks the arithmetic.
func plantedVec(rng *rand.Rand, n int, nonFinite bool) []float64 {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1.5e-323, 2.2e-308}
	if nonFinite {
		specials = append(specials, math.NaN(), math.Inf(1), math.Inf(-1))
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		if rng.Intn(6) == 0 {
			x[i] = specials[rng.Intn(len(specials))]
		}
	}
	return x
}

// denseFwdRef is the scalar dense forward: bias, then one axpy per
// non-zero input in input order.
func denseFwdRef(rows, in, width int, x, b, w, out []float64) {
	for i := 0; i < rows; i++ {
		o := out[i*width : (i+1)*width]
		copy(o, b)
		for k := 0; k < in; k++ {
			v := x[i*in+k]
			if v == 0 {
				continue
			}
			for j := range o {
				o[j] += v * w[k*width+j]
			}
		}
	}
}

// denseBwdRef is the scalar dense backward, row by row: the loops of
// nn's legacy Linear.Backward.
func denseBwdRef(rows, in, width int, x, g, w, dW, db, dx []float64) {
	for i := 0; i < rows; i++ {
		gi := g[i*width : (i+1)*width]
		for j := range gi {
			db[j] += gi[j]
		}
		for k := 0; k < in; k++ {
			xv := x[i*in+k]
			var acc float64
			for j := range gi {
				dW[k*width+j] += xv * gi[j]
				acc += gi[j] * w[k*width+j]
			}
			dx[i*in+k] = acc
		}
	}
}

// TestDenseKernelsBitIdenticalSweep drives DenseFwd and DenseBwd over
// in × width ∈ 0..33 and rows ∈ 0..9 — strips that end on one of the
// kernel's 2-row blocks and on a single row — with ±0, denormals, NaN
// and ±Inf planted in every operand, so the rows of one block skip
// different terms. The forward zero-skip is part of what is pinned: a
// -0 input skips its weight row (so an Inf there stays out of the sum)
// while a NaN input does not.
func TestDenseKernelsBitIdenticalSweep(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for rows := 0; rows <= 9; rows++ {
			for in := 0; in <= 33; in++ {
				for width := 0; width <= 33; width++ {
					nonFinite := (rows+in+width)%2 == 0
					x := plantedVec(rng, rows*in, nonFinite)
					g := plantedVec(rng, rows*width, nonFinite)
					w := plantedVec(rng, in*width, nonFinite)
					b := plantedVec(rng, width, nonFinite)

					got := plantedVec(rng, rows*width, true) // must be overwritten
					want := make([]float64, rows*width)
					DenseFwd(rows, in, width, x, b, w, got)
					denseFwdRef(rows, in, width, x, b, w, want)
					assertSameBits(t, "out", got, want)

					dW, db := plantedVec(rng, in*width, nonFinite), plantedVec(rng, width, nonFinite)
					dW2, db2 := append([]float64(nil), dW...), append([]float64(nil), db...)
					dx := plantedVec(rng, rows*in, true) // must be overwritten
					dx2 := make([]float64, rows*in)
					DenseBwd(rows, in, width, x, g, w, make([]float64, in*width), dW, db, dx)
					denseBwdRef(rows, in, width, x, g, w, dW2, db2, dx2)
					assertSameBits(t, "dW", dW, dW2)
					assertSameBits(t, "db", db, db2)
					assertSameBits(t, "dx", dx, dx2)
					if t.Failed() {
						t.Fatalf("rows=%d in=%d width=%d nonFinite=%v", rows, in, width, nonFinite)
					}
				}
			}
		}
	})
}

// TestDenseFwdZeroSkipSemantics spells the skip rule out, one case per
// row: a -0 input keeps an infinite weight out of the sum, a NaN input
// does not, and a skipped +0 leaves a -0 bias alone. The cases cycle
// over 1..9 rows, so every 2-row block of the kernel holds rows that
// skip different terms, and none may leak into its neighbour.
func TestDenseFwdZeroSkipSemantics(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		w := make([]float64, 4*8)
		for j := 0; j < 8; j++ {
			w[0*8+j] = math.Inf(1) // behind the -0 input: must be skipped
			w[1*8+j] = 1           // behind the +0 input: 0*1 would turn a -0 bias into +0
			w[3*8+j] = float64(j)
		}
		b := make([]float64, 8)
		b[5] = negZero
		cases := [][]float64{
			{negZero, 0, math.NaN(), 2}, // the NaN is not skipped: every output is NaN
			{negZero, 0, 0, 2},          // both zeros are: b + 2·w[3]
			{negZero, 0, 0, 0},          // all four are: the bias, its -0 untouched
		}
		for rows := 1; rows <= 9; rows++ {
			x := make([]float64, 0, rows*4)
			for i := 0; i < rows; i++ {
				x = append(x, cases[i%len(cases)]...)
			}
			out := make([]float64, rows*8)
			DenseFwd(rows, 4, 8, x, b, w, out)
			for i := 0; i < rows; i++ {
				for j, v := range out[i*8 : (i+1)*8] {
					switch i % len(cases) {
					case 0:
						if !math.IsNaN(v) {
							t.Fatalf("%d rows: out[%d][%d] = %v: the NaN input was skipped", rows, i, j, v)
						}
					case 1:
						if want := b[j] + 2*float64(j); math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%d rows: out[%d][%d] = %v, want %v: a zero input was not skipped", rows, i, j, v, want)
						}
					case 2:
						if math.Float64bits(v) != math.Float64bits(b[j]) {
							t.Fatalf("%d rows: out[%d][%d] = %v, want the untouched bias %v", rows, i, j, v, b[j])
						}
					}
				}
			}
		}
	})
}

// productRef evaluates a Product with the scalar loops its doc comment
// states, into a fresh copy of Out.
func productRef(p *Product) []float64 {
	out := append([]float64(nil), p.Out...)
	for i := 0; i < p.Rows; i++ {
		for j := 0; j < p.Width; j++ {
			var acc float64
			if p.Init != nil {
				acc = p.Init[i*p.LdInit+j]
			}
			for k := 0; k < p.Inner; k++ {
				v := p.A[i*p.ARow+k*p.AK]
				if v == 0 && p.SkipZeros {
					continue
				}
				acc += v * p.B[k*p.LdB+j]
			}
			out[i*p.LdOut+j] = acc
		}
	}
	return out
}

// TestProductStridedBitIdentical covers what the dense wrappers do not:
// column slices of wider matrices (the attention heads), a transposed A,
// nil / broadcast / in-place Init, both skip settings — and that nothing
// outside the addressed block of Out is written. Rows 0..9 end a strip
// on one of the kernel's 2-row blocks or on a single row and widths
// 0..41 cross every strip shape, each under all twelve combinations of A layout, Init
// kind and skip setting; every other trial zeroes half of A with either
// sign, the post-ReLU density, so the rows of one block skip different
// terms.
func TestProductStridedBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		trial := 0
		for rows := 0; rows <= 9; rows++ {
			for width := 0; width <= 41; width++ {
				for combo := 0; combo < 12; combo++ {
					trial++
					inner := rng.Intn(10)
					pad := func() int { return rng.Intn(3) * rng.Intn(7) }
					p := &Product{Rows: rows, Inner: inner, Width: width, SkipZeros: combo%2 == 0}
					if combo/2%2 == 0 { // A as stored
						p.ARow, p.AK = inner+pad(), 1
					} else { // Aᵀ: the same memory, strides swapped
						p.ARow, p.AK = 1, rows+pad()
					}
					p.LdB, p.LdOut = width+pad(), width+pad()
					off := pad()
					nonFinite := trial%4 == 0
					p.A = plantedVec(rng, off+span(rows, p.ARow, inner, p.AK), nonFinite)[off:]
					if trial%2 == 0 {
						for i := range p.A {
							if rng.Intn(2) == 0 {
								p.A[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
							}
						}
					}
					p.B = plantedVec(rng, off+span(inner, p.LdB, width, 1)+pad(), nonFinite)[off:]
					p.Out = plantedVec(rng, off+span(rows, p.LdOut, width, 1)+pad(), nonFinite)[off:]
					switch combo / 4 {
					case 1: // one broadcast row
						p.Init = plantedVec(rng, width, nonFinite)
					case 2: // accumulate in place
						p.Init, p.LdInit = p.Out, p.LdOut
					}
					want := productRef(p)
					p.Eval()
					assertSameBits(t, "out", p.Out, want)
					if t.Failed() {
						t.Fatalf("trial %d: %+v", trial, *p)
					}
				}
			}
		}
	})
}

// TestProductPanicsOnShortOperand: the AVX kernel reads raw pointers, so
// Eval must refuse any operand that is shorter than its strides reach.
func TestProductPanicsOnShortOperand(t *testing.T) {
	ok := func() *Product {
		return &Product{Rows: 3, Inner: 4, Width: 5, A: make([]float64, 12), ARow: 4, AK: 1,
			B: make([]float64, 20), LdB: 5, Init: make([]float64, 5), Out: make([]float64, 15), LdOut: 5}
	}
	ok().Eval()
	for name, breakIt := range map[string]func(p *Product){
		"A":      func(p *Product) { p.A = p.A[:11] },
		"A^T":    func(p *Product) { p.ARow, p.AK = 1, 4 },
		"B":      func(p *Product) { p.B = p.B[:19] },
		"Init":   func(p *Product) { p.Init = p.Init[:4] },
		"Out":    func(p *Product) { p.Out = p.Out[:14] },
		"stride": func(p *Product) { p.LdOut = -5 },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			p := ok()
			breakIt(p)
			p.Eval()
		}()
	}
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on length mismatch", name)
			}
		}()
		fn()
	}
	z := func(n int) []float64 { return make([]float64, n) }
	expectPanic("DenseFwd", func() { DenseFwd(2, 3, 4, z(6), z(4), z(12), z(7)) })
	expectPanic("DenseBwd", func() { DenseBwd(2, 3, 4, z(6), z(8), z(12), z(11), z(12), z(4), z(6)) })
}

// layerShapes are the dense layers of the shipped TranAD configuration
// (eval.NewDetector: Window 8, DModel 12, Heads 2) at dim 6 (raw, delta,
// mean) and dim 15 (correlation), next to the 48×48 the kernels were
// first tuned on. Benchmarks at shapes nobody runs are how the previous
// kernels came to miss every layer but one.
var layerShapes = []struct {
	name      string
	in, width int
}{
	{"6x12", 6, 12}, {"12x12", 12, 12}, {"12x24", 12, 24}, {"24x12", 24, 12},
	{"12x6", 12, 6}, {"18x12", 18, 12}, {"15x12", 15, 12}, {"48x48", 48, 48},
}

// benchRows is the window length of the shipped configuration: one fit
// pass hands the kernels 8 rows at a time.
const benchRows = 8

func reportPerRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
}

// BenchmarkLinFwd runs each shape on one dense window, where the
// zero-skip finds nothing, and the FFN's second layer on post-ReLU
// input as well: 1 024 windows with half their elements zero at random
// (a predictor learns 64 of them by heart), which is what a branch on
// the element mispredicts and the kernel's conditional moves do not.
func BenchmarkLinFwd(b *testing.B) {
	run := func(name string, in, width, windows int) {
		b.Run(name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, bias, w := randVec(rng, windows*benchRows*in), randVec(rng, width), randVec(rng, in*width)
			for i := range x {
				if windows > 1 && rng.Intn(2) == 0 {
					x[i] = 0
				}
			}
			out := make([]float64, benchRows*width)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				win := x[i%windows*benchRows*in:][:benchRows*in]
				DenseFwd(benchRows, in, width, win, bias, w, out)
			}
			reportPerRow(b)
		})
	}
	for _, s := range layerShapes {
		run(s.name, s.in, s.width, 1)
	}
	run("24x12/relu", 24, 12, 1024)
}

func BenchmarkLinBwd(b *testing.B) {
	for _, s := range layerShapes {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, g, w := randVec(rng, benchRows*s.in), randVec(rng, benchRows*s.width), randVec(rng, s.in*s.width)
			wT, dW, db := make([]float64, s.in*s.width), make([]float64, s.in*s.width), make([]float64, s.width)
			dx := make([]float64, benchRows*s.in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DenseBwd(benchRows, s.in, s.width, x, g, w, wT, dW, db, dx)
			}
			reportPerRow(b)
		})
	}
}
