package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Scoring-path kernel tests: the distance and row kernels sit on
// bit-exactness-contracted paths (neighbour searches feed the grand
// conformal gates, NormRows feeds the tranad last-row scorer), so every
// test here asserts Float64bits identity against the scalar reference
// at awkward lengths — 0, 1, either side of the vector width, and
// unaligned tails — whatever kernel the CPU dispatches to.

// TestSquaredDistances8BitIdentical packs 8 points dim-major and checks
// every lane of the block kernel against a scalar SquaredEuclidean of
// the same point, bit for bit, across dims spanning the blocking
// boundaries (the lane reduction must run in element order).
func TestSquaredDistances8BitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 45, 64} {
		pts := make([][]float64, DistLanes)
		block := make([]float64, dim*DistLanes)
		for p := range pts {
			pts[p] = randVec(rng, dim)
			for j := 0; j < dim; j++ {
				block[j*DistLanes+p] = pts[p][j]
			}
		}
		q := randVec(rng, dim)
		if dim > 0 {
			// Exercise exact-cancellation lanes too: identical elements
			// must produce exact zero contributions.
			copy(pts[3], q)
			for j := 0; j < dim; j++ {
				block[j*DistLanes+3] = q[j]
			}
		}
		out := make([]float64, DistLanes)
		SquaredDistances8(q, block, out)
		for p := range pts {
			want, err := SquaredEuclidean(q, pts[p])
			if err != nil {
				t.Fatalf("dim=%d: reference error: %v", dim, err)
			}
			if math.Float64bits(out[p]) != math.Float64bits(want) {
				t.Fatalf("dim=%d lane=%d: SquaredDistances8=%x scalar=%x (simd=%s)",
					dim, p, math.Float64bits(out[p]), math.Float64bits(want), SIMDMode())
			}
		}
	}
}

// TestNormRowBitIdentical drives NormRows, with and without its xhat
// output, against the scalar loop of the layer-norm forward at every
// row count to 9 and width across the SIMD blocking boundaries, on finite
// rows and on rows with NaN and ±Inf planted, under native and
// forced-scalar dispatch.
func TestNormRowBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for rows := 0; rows <= 9; rows++ {
			for n := 1; n <= 27; n++ {
				nonFinite := n%2 == 1
				x := plantedVec(rng, rows*n, nonFinite)
				gain, bias := plantedVec(rng, n, nonFinite), plantedVec(rng, n, nonFinite)
				mean, inv := randVec(rng, rows), randVec(rng, rows)
				want, wantXh := make([]float64, rows*n), make([]float64, rows*n)
				for i := range want {
					r, j := i/n, i%n
					wantXh[i] = (x[i] - mean[r]) * inv[r]
					want[i] = wantXh[i]*gain[j] + bias[j]
				}
				got, xh := make([]float64, rows*n), make([]float64, rows*n)
				NormRows(x, gain, bias, got, nil, mean, inv)
				assertSameBits(t, "out", got, want)
				NormRows(x, gain, bias, got, xh, mean, inv)
				assertSameBits(t, "out", got, want)
				assertSameBits(t, "xhat", xh, wantXh)
				if t.Failed() {
					t.Fatalf("rows=%d n=%d", rows, n)
				}
			}
		}
	})
}

// TestLinFwdStripBitIdentical re-pins the dense forward after the strip-mined
// register-accumulator rewrite: wider shape sweep than the original
// test, including NaN inputs (which must be processed, not skipped)
// and in=0 rows (out must equal the bias).
func TestLinFwdStripBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, shape := range [][2]int{
		{1, 8}, {2, 8}, {16, 16}, {16, 24}, {48, 48}, {3, 40}, {17, 32},
		{0, 8}, {0, 16}, {5, 7}, {5, 9}, {6, 1}, {4, 0},
	} {
		in, width := shape[0], shape[1]
		x := randVec(rng, in)
		for i := range x {
			switch i % 5 {
			case 0:
				x[i] = 0
			case 3:
				if i%10 == 3 {
					x[i] = math.NaN()
				}
			}
		}
		b, w := randVec(rng, width), randVec(rng, in*width)
		got := make([]float64, width)
		want := make([]float64, width)
		DenseFwd(1, in, width, x, b, w, got)
		copy(want, b)
		for k, v := range x {
			if v == 0 {
				continue
			}
			for j := 0; j < width; j++ {
				want[j] += v * w[k*width+j]
			}
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("in=%d width=%d: out[%d]=%x want %x (simd=%s)",
					in, width, j, math.Float64bits(got[j]), math.Float64bits(want[j]), SIMDMode())
			}
		}
	}
}

func BenchmarkSquaredDistances8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const dim = 45
	q := randVec(rng, dim)
	block := randVec(rng, dim*DistLanes)
	out := make([]float64, DistLanes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SquaredDistances8(q, block, out)
	}
}

// BenchmarkNormRow is one row through NormRows, as the scorer's
// LayerNorm.Apply runs a run of one.
func BenchmarkNormRow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	x, gain, bias := randVec(rng, n), randVec(rng, n), randVec(rng, n)
	out := make([]float64, n)
	mean, inv := []float64{0.1}, []float64{1.7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NormRows(x, gain, bias, out, nil, mean, inv)
	}
}
