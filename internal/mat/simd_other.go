//go:build !amd64

package mat

// Non-amd64 builds run the pure Go kernels; the dispatch flag stays
// false and the assembly entry points are never reached.

const hasAVX = false

func axpyAVX(alpha float64, x, y []float64) { panic("mat: axpyAVX without AVX") }

func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64) {
	panic("mat: adamAVX without AVX")
}

func productAVX(rows, inner, width int, a []float64, aRow, aK int, b []float64, ldb int, init []float64, ldi int, out []float64, ldo int, skip bool) {
	panic("mat: productAVX without AVX")
}

func transposeAVX(rows, cols int, src, dst []float64) { panic("mat: transposeAVX without AVX") }

func distPackAVX(q, block, out []float64) { panic("mat: distPackAVX without AVX") }

func normRowAVX(x, gain, bias, out []float64, m, inv float64) {
	panic("mat: normRowAVX without AVX")
}

func simdMode() string { return "scalar" }
