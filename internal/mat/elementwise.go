package mat

import (
	"fmt"
	"math"
)

// Element-wise kernels for the layers around the products: residual
// sums, ReLU and its gradient gate, TranAD's focus score, the squared
// error gradient and the column concatenation of two matrices. Each
// output element is the scalar loop's operation on its own inputs, so
// the AVX bodies (four lanes at a time, the Go loop for the tail) are
// bit-identical to that loop. Every function panics on length mismatch.

// Add computes dst[i] = a[i] + b[i].
func Add(dst, a, b []float64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("mat: Add: len(dst)=%d len(a)=%d len(b)=%d", len(dst), len(a), len(b)))
	}
	i := 0
	if hasAVX && len(dst) >= 4 {
		i = len(dst) &^ 3
		addAVX(dst[:i], a[:i], b[:i])
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// ReLU writes out[i] = x[i], or +0 where x[i] < 0, without a branch on
// the data: keep[i] is all ones where !(x[i] < 0) and zero elsewhere,
// and out[i] is x[i]'s bits ANDed with it — so NaN and -0 pass, as the
// compare-and-clamp keeps them. keep may be nil; out may be x.
func ReLU(out []float64, keep []uint64, x []float64) {
	if len(x) != len(out) || (keep != nil && len(keep) != len(out)) {
		panic(fmt.Sprintf("mat: ReLU: len(out)=%d len(keep)=%d len(x)=%d", len(out), len(keep), len(x)))
	}
	i := 0
	if hasAVX && len(out) >= 4 {
		i = len(out) &^ 3
		var k []uint64
		if keep != nil {
			k = keep[:i]
		}
		reluAVX(out[:i], k, x[:i])
	}
	for ; i < len(out); i++ {
		var k uint64
		if !(x[i] < 0) {
			k = ^uint64(0)
		}
		if keep != nil {
			keep[i] = k
		}
		out[i] = math.Float64frombits(math.Float64bits(x[i]) & k)
	}
}

// Gate writes out[i] = g[i] ANDed with keep[i] (ReLU's keep words): the
// gradient where the input was kept, +0 elsewhere.
func Gate(out, g []float64, keep []uint64) {
	if len(g) != len(out) || len(keep) != len(out) {
		panic(fmt.Sprintf("mat: Gate: len(out)=%d len(g)=%d len(keep)=%d", len(out), len(g), len(keep)))
	}
	i := 0
	if hasAVX && len(out) >= 4 {
		i = len(out) &^ 3
		gateAVX(out[:i], g[:i], keep[:i])
	}
	for ; i < len(out); i++ {
		out[i] = math.Float64frombits(math.Float64bits(g[i]) & keep[i])
	}
}

// SquaredDiff computes out[i] = (a[i]-b[i])², the difference rounded
// before it is squared.
func SquaredDiff(out, a, b []float64) {
	if len(a) != len(out) || len(b) != len(out) {
		panic(fmt.Sprintf("mat: SquaredDiff: len(out)=%d len(a)=%d len(b)=%d", len(out), len(a), len(b)))
	}
	i := 0
	if hasAVX && len(out) >= 4 {
		i = len(out) &^ 3
		sqDiffAVX(out[:i], a[:i], b[:i])
	}
	for ; i < len(out); i++ {
		d := a[i] - b[i]
		out[i] = d * d
	}
}

// SquaredErrorGrad writes the gradient of the mean squared error,
// grad[i] = 2·(pred[i]-target[i])/n with n = len(pred), and returns the
// sum of the squared differences taken in index order.
func SquaredErrorGrad(grad, pred, target []float64) float64 {
	if len(pred) != len(grad) || len(target) != len(grad) {
		panic(fmt.Sprintf("mat: SquaredErrorGrad: len(grad)=%d len(pred)=%d len(target)=%d",
			len(grad), len(pred), len(target)))
	}
	n := float64(len(pred))
	var sum float64
	i := 0
	if hasAVX && len(grad) >= 4 {
		i = len(grad) &^ 3
		sum = sqErrGradAVX(grad[:i], pred[:i], target[:i], n)
	}
	for ; i < len(grad); i++ {
		d := pred[i] - target[i]
		sum += d * d
		grad[i] = 2 * d / n
	}
	return sum
}

// ConcatCols writes the rows×(na+nb) matrix out whose row r is row r of
// the rows×na matrix a followed by row r of the rows×nb matrix b (all
// row-major and contiguous; out must not overlap either).
func ConcatCols(out, a, b []float64, rows, na, nb int) {
	if rows < 0 || na < 0 || nb < 0 || len(a) != rows*na || len(b) != rows*nb || len(out) != rows*(na+nb) {
		panic(fmt.Sprintf("mat: ConcatCols %dx(%d+%d): len(out)=%d len(a)=%d len(b)=%d",
			rows, na, nb, len(out), len(a), len(b)))
	}
	if hasAVX && rows > 0 && na >= 4 && nb >= 4 {
		concatAVX(out, a, b, rows, na, nb)
		return
	}
	for r := 0; r < rows; r++ {
		row := out[r*(na+nb) : (r+1)*(na+nb)]
		copy(row[:na], a[r*na:(r+1)*na])
		copy(row[na:], b[r*nb:(r+1)*nb])
	}
}
