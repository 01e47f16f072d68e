// Package mat provides the small dense linear-algebra and descriptive
// statistics kernel used throughout the PdM library: vectors, matrices,
// moments, quantiles, Pearson correlation and distance functions.
//
// The package is deliberately minimal — it implements exactly what the
// detection framework needs — but every routine is defined for the edge
// cases that show up in streaming sensor data (empty input, constant
// signals, NaN propagation).
package mat

import (
	"errors"
	"math"
)

// ErrDimension is returned when two operands have incompatible sizes.
var ErrDimension = errors.New("mat: dimension mismatch")

// Sum returns the sum of the elements of x. An empty slice sums to 0.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or NaN for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	return Sum(x) / float64(len(x))
}

// Variance returns the population variance of x (dividing by n), or NaN
// for an empty slice. The detection thresholds in the paper use the
// population form.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	m := Mean(x)
	var ss float64
	for _, v := range x {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 {
	return math.Sqrt(Variance(x))
}

// Median returns the median of x without modifying it, or NaN for an
// empty slice.
func Median(x []float64) float64 {
	return Quantile(x, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of x using linear
// interpolation between order statistics, matching NumPy's default
// behaviour. It copies x and returns NaN for an empty slice or q outside
// [0, 1].
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	c := make([]float64, len(x))
	copy(c, x)
	insertionSort(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return c[lo]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[hi]*frac
}

// insertionSort sorts small slices in place; for larger inputs it falls
// back to a bottom-up merge to keep worst-case behaviour O(n log n).
func insertionSort(x []float64) {
	if len(x) > 64 {
		mergeSort(x)
		return
	}
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}

func mergeSort(x []float64) {
	buf := make([]float64, len(x))
	for width := 1; width < len(x); width *= 2 {
		for lo := 0; lo < len(x); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(x) {
				mid = len(x)
			}
			if hi > len(x) {
				hi = len(x)
			}
			merge(x[lo:mid], x[mid:hi], buf[lo:hi])
			copy(x[lo:hi], buf[lo:hi])
		}
	}
}

func merge(a, b, out []float64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// Pearson returns the Pearson correlation coefficient between x and y.
// When either signal is constant over the window the correlation is
// undefined; this implementation returns 0 in that case, which the
// correlation transform documents as "no linear relationship observable".
// It returns an error when the slices differ in length or are empty.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrDimension
	}
	if len(x) == 0 {
		return 0, errors.New("mat: Pearson of empty slices")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp tiny floating-point excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r, nil
}

// Euclidean returns the L2 distance between x and y.
func Euclidean(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrDimension
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// SquaredEuclidean returns the squared L2 distance between x and y. It is
// the hot inner loop of the neighbour searches, so it avoids the sqrt.
func SquaredEuclidean(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrDimension
	}
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s, nil
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
