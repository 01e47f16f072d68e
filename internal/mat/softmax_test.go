package mat

import (
	"math"
	"math/rand"
	"testing"
)

// The softmax kernel's exp replays math.Exp's amd64 sequence lane by
// lane, so these tests hold it to math.Exp itself on this host's branch,
// and to a Go transcription of each branch: the fused one needs an FMA
// CPU, and the separate multiply/subtract one is what math.Exp runs on
// an AVX CPU without FMA, which this host may not be.

// expLanes is exp over x the way SoftmaxRows takes it: expAVX on the
// host's branch, and math.Exp for every lane expAVX marks special (and
// for everything when the kernels are off).
func expLanes(x []float64) []float64 {
	out := make([]float64, len(x))
	for i := 0; i < len(x); i += 4 {
		var in, o [4]float64
		copy(in[:], x[i:])
		special := 0xf
		if hasAVX {
			special = expAVX(&in, &o, hasFMA)
		}
		for l := 0; l < 4 && i+l < len(x); l++ {
			if special&(1<<l) != 0 {
				o[l] = math.Exp(in[l])
			}
			out[i+l] = o[l]
		}
	}
	return out
}

// expRef transcribes math.Exp's amd64 plain path (src/math/exp_amd64.s)
// for x whose k = round(x·log2e) lies in [-1022, 1023]: its fused branch
// through math.FMA when fused is set, its multiply/subtract branch
// otherwise. Every product is converted, so no compiler may fuse it.
func expRef(x float64, fused bool) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	coef := [...]float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	k := math.RoundToEven(float64(x * log2e))
	var r, p float64
	if fused {
		r = math.FMA(-k, ln2U, x)
		r = math.FMA(-k, ln2L, r)
		r = float64(r * 0.0625)
		p = 2.4801587301587301587e-5
		for _, c := range coef {
			p = math.FMA(p, r, c)
		}
		r = float64(r * p)
		for i := 0; i < 3; i++ {
			r = float64(r * float64(r+2))
		}
		r = math.FMA(r, float64(r+2), 1)
	} else {
		r = float64(x - float64(k*ln2U))
		r = float64(r - float64(k*ln2L))
		r = float64(r * 0.0625)
		p = 2.4801587301587301587e-5
		for _, c := range coef {
			p = float64(float64(p*r) + c)
		}
		r = float64(r * p)
		for i := 0; i < 4; i++ {
			r = float64(r * float64(r+2))
		}
		r += 1
	}
	return float64(r * math.Float64frombits(uint64(int64(k)+1023)<<52))
}

// expInputs are random arguments across the whole domain plus the edges
// the kernel must get right: ±0, tiny and denormal values, the
// denormal/underflow range −708 … −745 (with its exact k boundaries), the
// 709.78 overflow edge, ±Inf, NaN, and arguments whose x·log2e lands on
// or beside a .5 tie of the rounding to k.
func expInputs() []float64 {
	rng := rand.New(rand.NewSource(41))
	x := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-300, -1e-300, 2.2e-308, 1e-17, -1e-17,
		709.78, 709.782712893384, math.Nextafter(709.782712893384, 0), math.Nextafter(709.782712893384, 1000),
		709.7, 710, 1000, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), -708.3964185322641, -708.4, -708.39, -709.08956571282405,
		-744.44007192138126, -745.13321910194122, -745.1332191019412, -746, -1e10}
	for v := -708.0; v >= -746; v -= 0.125 {
		x = append(x, v)
	}
	for k := -1024.0; k <= 1024; k += 7 {
		tie := (k + 0.5) / 1.4426950408889634
		for _, v := range []float64{tie, math.Nextafter(tie, math.Inf(1)), math.Nextafter(tie, math.Inf(-1))} {
			x = append(x, v, -v)
		}
	}
	for i := 0; i < 4000; i++ {
		x = append(x, (rng.Float64()*2-1)*750, rng.NormFloat64(), -rng.ExpFloat64()*30)
	}
	return x
}

// TestExpLanesMatchMathExp holds the kernel's exp, special lanes handed
// to math.Exp as SoftmaxRows hands them, to math.Exp bit for bit, at
// native dispatch and with the kernels forced off.
func TestExpLanesMatchMathExp(t *testing.T) {
	x := expInputs()
	dispatchModes(t, func(t *testing.T) {
		got := expLanes(x)
		for i, v := range x {
			if want := math.Exp(v); !sameBits(got[i], want) {
				t.Fatalf("exp(%v) = %x, math.Exp %x (simd=%s)", v, math.Float64bits(got[i]), math.Float64bits(want), SIMDMode())
			}
		}
	})
}

// TestExpBranchesMatchTranscription runs both of the kernel's branches
// against the Go transcription of math.Exp's, lane by lane, on every
// plain-path argument of expInputs — the multiply/subtract branch is
// the one an AVX CPU without FMA runs, and it is only checked here — and
// checks the transcription of this host's branch against math.Exp, so
// the transcription is known to be math's sequence.
func TestExpBranchesMatchTranscription(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the kernel never runs")
	}
	x := expInputs()
	plain := 0
	for _, fused := range []bool{false, true} {
		for i := 0; i < len(x)-3; i += 4 {
			in := [4]float64{x[i], x[i+1], x[i+2], x[i+3]}
			var out [4]float64
			special := expAVX(&in, &out, fused)
			for l, v := range in {
				k := math.RoundToEven(v * 1.4426950408889634)
				onPath := k >= -1022 && k <= 1023
				if onPath == (special&(1<<l) != 0) {
					t.Fatalf("exp(%v): special=%v, k=%v", v, special&(1<<l) != 0, k)
				}
				if !onPath {
					continue
				}
				plain++
				if want := expRef(v, fused); !sameBits(out[l], want) {
					t.Fatalf("fused=%v exp(%v) = %x, transcription %x", fused, v, math.Float64bits(out[l]), math.Float64bits(want))
				}
				if fused == hasFMA && !sameBits(out[l], math.Exp(v)) {
					t.Fatalf("fused=%v exp(%v) = %x, math.Exp %x", fused, v, math.Float64bits(out[l]), math.Float64bits(math.Exp(v)))
				}
			}
		}
	}
	if plain < len(x) {
		t.Fatalf("only %d plain-path lanes checked", plain)
	}
}

// softmaxRef is SoftmaxRows' reference: softmaxRow over each row.
func softmaxRef(x []float64, n int, scale float64) {
	for i := 0; i < len(x); i += n {
		softmaxRow(x[i:i+n], scale)
	}
}

// TestSoftmaxRowsBitIdentical sweeps row lengths across the vector
// boundaries and row counts, with scores planted with ±0, denormals and
// (in half the cases) NaN and ±Inf, plus rows whose spread underflows
// some weights — the rows the kernel hands back to the scalar loop.
func TestSoftmaxRowsBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		for n := 1; n <= 19; n++ {
			for rows := 1; rows <= 11; rows++ {
				for _, nonFinite := range []bool{false, true} {
					for _, spread := range []float64{1, 400} {
						x := plantedVec(rng, rows*n, nonFinite)
						for i := range x {
							x[i] *= spread
						}
						want := append([]float64(nil), x...)
						scale := 1 / math.Sqrt(float64(n))
						SoftmaxRows(x, n, scale)
						softmaxRef(want, n, scale)
						assertSameBits(t, "weights", x, want)
						if t.Failed() {
							t.Fatalf("n=%d rows=%d nonFinite=%v spread=%v", n, rows, nonFinite, spread)
						}
					}
				}
			}
		}
	})
}

// FuzzSoftmaxRows carves the rows out of a buffer with canaries either
// side and takes their length, count, scale and contents from the
// corpus: the result must be softmaxRow's bit for bit with the canaries
// intact, under native dispatch and with the kernels forced off. The
// seeds are the shipped attention's 8×8 head and the two rows AttendLast
// scores per window.
func FuzzSoftmaxRows(f *testing.F) {
	data := []byte{200, 0, 1, 160, 2, 90, 255, 3, 4, 120, 5, 7, 180, 40, 100, 60, 211, 48, 130}
	f.Add(uint8(benchRows), uint8(benchRows), uint8(0), data)
	f.Add(uint8(2), uint8(benchRows), uint8(3), data)
	f.Fuzz(func(t *testing.T, rows, n, scaleCode uint8, data []byte) {
		r, w := int(rows%20), int(n%20)+1
		const guard = 4
		buf := make([]float64, guard+r*w+guard)
		for i := range buf {
			buf[i] = math.Float64frombits(canary)
		}
		x := buf[guard : guard+r*w : guard+r*w]
		for i := range x {
			x[i] = 1
			if len(data) > 0 {
				x[i] = fuzzValue(data[i%len(data)]) * float64(1+int(data[i%len(data)])%64)
			}
		}
		scale := []float64{1 / math.Sqrt(6), 1, 0.5, 1e-3, 37, -1, 0, math.Inf(1)}[scaleCode%8]
		want := append([]float64(nil), x...)
		softmaxRef(want, w, scale)
		in := append([]float64(nil), x...)
		run := func(mode string) {
			copy(x, in)
			SoftmaxRows(x, w, scale)
			assertSameBits(t, mode+": weights", x, want)
			for i := 0; i < guard; i++ {
				if math.Float64bits(buf[i]) != canary || math.Float64bits(buf[len(buf)-1-i]) != canary {
					t.Errorf("%s: a canary was overwritten", mode)
				}
			}
			if t.Failed() {
				t.Fatalf("rows=%d n=%d scale=%v", r, w, scale)
			}
		}
		run("native")
		forceScalar(t)
		run("scalar")
	})
}

// BenchmarkSoftmaxRows runs the shipped attention's softmaxes: one
// head's 8×8 scores in a fit's forward pass, and the last row of both
// heads that AttendLast scores per window (a run of one).
func BenchmarkSoftmaxRows(b *testing.B) {
	for _, c := range []struct {
		name    string
		rows, n int
	}{{"8x8", benchRows, benchRows}, {"2x8", 2, benchRows}} {
		b.Run(c.name, func(b *testing.B) {
			src := randVec(rand.New(rand.NewSource(1)), c.rows*c.n)
			x := make([]float64, len(src))
			scale := 1 / math.Sqrt(6)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x, src)
				SoftmaxRows(x, c.n, scale)
			}
		})
	}
}
