package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestNormKernelsBitIdentical holds the layer norm's per-row sums
// (NormMoments, NormGradSums), its input gradient (NormGradRows) and its
// parameter gradients (NormParamGrads) to the scalar loops of the layer
// at every row count to 9 — below one group of four rows, whole groups,
// and a last group overlapping the one before — and every width across
// the vector boundaries, with ±0, denormals, NaN and ±Inf planted, under
// native and forced-scalar dispatch.
func TestNormKernelsBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(59))
		for rows := 0; rows <= 9; rows++ {
			for n := 1; n <= 27; n++ {
				x, g, xh := plantedVec(rng, rows*n, true), plantedVec(rng, rows*n, true), plantedVec(rng, rows*n, true)
				gain, fn := plantedVec(rng, n, true), float64(n)
				wantMean, wantInv := make([]float64, rows), make([]float64, rows)
				wantDx, wantDxXh := make([]float64, rows), make([]float64, rows)
				for r := 0; r < rows; r++ {
					row := x[r*n : (r+1)*n]
					wantMean[r] = Mean(row)
					wantInv[r] = 1 / math.Sqrt(Variance(row)+1e-5)
					for j := 0; j < n; j++ {
						dh := g[r*n+j] * gain[j]
						wantDx[r] += dh
						wantDxXh[r] += dh * xh[r*n+j]
					}
				}
				mean, inv := make([]float64, rows), make([]float64, rows)
				NormMoments(x, n, 1e-5, mean, inv)
				assertSameBits(t, "mean", mean, wantMean)
				assertSameBits(t, "inv", inv, wantInv)
				sumDx, sumDxXh := make([]float64, rows), make([]float64, rows)
				NormGradSums(g, xh, gain, sumDx, sumDxXh)
				assertSameBits(t, "sumDx", sumDx, wantDx)
				assertSameBits(t, "sumDxXh", sumDxXh, wantDxXh)

				want := make([]float64, rows*n)
				for i := range want {
					r, j := i/n, i%n
					want[i] = (float64(g[i]*gain[j]) - sumDx[r]/fn - xh[i]*sumDxXh[r]/fn) * inv[r]
				}
				out := make([]float64, rows*n)
				NormGradRows(g, gain, xh, out, sumDx, sumDxXh, inv)
				assertSameBits(t, "NormGradRows", out, want)

				gainG, biasG := plantedVec(rng, n, false), plantedVec(rng, n, false)
				wantG, wantB := append([]float64(nil), gainG...), append([]float64(nil), biasG...)
				for i := range g {
					wantG[i%n] += g[i] * xh[i]
					wantB[i%n] += g[i]
				}
				NormParamGrads(gainG, biasG, g, xh)
				assertSameBits(t, "NormParamGrads gain", gainG, wantG)
				assertSameBits(t, "NormParamGrads bias", biasG, wantB)
				if t.Failed() {
					t.Fatalf("rows=%d n=%d", rows, n)
				}
			}
		}
	})
}
