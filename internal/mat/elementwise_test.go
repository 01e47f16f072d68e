package mat

import (
	"math"
	"math/rand"
	"testing"
)

// TestElementwiseBitIdentical drives every element-wise kernel against
// the scalar loop it replaces at every length across the vector
// boundaries, with ±0, denormals, NaN and ±Inf planted, under native
// dispatch and with the kernels forced off; the in-place forms the
// layers use (ReLU with out = x, Add into a) are among the cases.
func TestElementwiseBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for n := 0; n <= 67; n++ {
			a, b := plantedVec(rng, n, true), plantedVec(rng, n, true)
			want := make([]float64, n)
			for i := range want {
				want[i] = a[i] + b[i]
			}
			got := plantedVec(rng, n, true)
			Add(got, a, b)
			assertSameBits(t, "Add", got, want)
			inPlace := append([]float64(nil), a...)
			Add(inPlace, inPlace, b)
			assertSameBits(t, "Add in place", inPlace, want)

			wantKeep := make([]uint64, n)
			for i, v := range a {
				want[i] = 0
				if !(v < 0) {
					want[i], wantKeep[i] = v, ^uint64(0)
				}
			}
			keep := make([]uint64, n)
			ReLU(got, keep, a)
			assertSameBits(t, "ReLU", got, want)
			for i := range keep {
				if keep[i] != wantKeep[i] {
					t.Errorf("ReLU keep[%d] = %x, want %x (x = %v)", i, keep[i], wantKeep[i], a[i])
					break
				}
			}
			inPlace = append(inPlace[:0], a...)
			ReLU(inPlace, nil, inPlace)
			assertSameBits(t, "ReLU in place", inPlace, want)

			for i, g := range b {
				want[i] = math.Float64frombits(math.Float64bits(g) & wantKeep[i])
			}
			Gate(got, b, keep)
			assertSameBits(t, "Gate", got, want)

			for i := range want {
				d := a[i] - b[i]
				want[i] = d * d
			}
			SquaredDiff(got, a, b)
			assertSameBits(t, "SquaredDiff", got, want)

			var wantSum float64
			for i := range want {
				d := a[i] - b[i]
				wantSum += d * d
				want[i] = 2 * d / float64(n)
			}
			sum := SquaredErrorGrad(got, a, b)
			assertSameBits(t, "SquaredErrorGrad", got, want)
			assertSameBits(t, "SquaredErrorGrad sum", []float64{sum}, []float64{wantSum})
			if t.Failed() {
				t.Fatalf("n=%d", n)
			}
		}
	})
}

// TestConcatColsBitIdentical checks ConcatCols against per-row copies at
// every row count to 9 and part widths either side of one vector, with
// canaries after out.
func TestConcatColsBitIdentical(t *testing.T) {
	dispatchModes(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(53))
		for rows := 0; rows <= 9; rows++ {
			for na := 0; na <= 17; na++ {
				for nb := 0; nb <= 17; nb++ {
					a, b := plantedVec(rng, rows*na, true), plantedVec(rng, rows*nb, true)
					w := na + nb
					want := make([]float64, rows*w)
					for r := 0; r < rows; r++ {
						copy(want[r*w:], a[r*na:(r+1)*na])
						copy(want[r*w+na:], b[r*nb:(r+1)*nb])
					}
					buf := make([]float64, rows*w+4)
					for i := range buf {
						buf[i] = math.Float64frombits(canary)
					}
					ConcatCols(buf[:rows*w], a, b, rows, na, nb)
					assertSameBits(t, "out", buf[:rows*w], want)
					for _, v := range buf[rows*w:] {
						if math.Float64bits(v) != canary {
							t.Errorf("a canary after out was overwritten")
						}
					}
					if t.Failed() {
						t.Fatalf("rows=%d na=%d nb=%d", rows, na, nb)
					}
				}
			}
		}
	})
}
