//go:build !amd64

package mat

// Non-amd64 builds run the pure Go kernels; the dispatch flag stays
// false and the assembly entry points are never reached.

const hasAVX, hasFMA = false, false

func axpyAVX(alpha float64, x, y []float64) { panic("mat: axpyAVX without AVX") }

func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64) {
	panic("mat: adamAVX without AVX")
}

func productAVX(rows, inner, width int, a []float64, aRow, aK int, b []float64, ldb int, init []float64, ldi int, out []float64, ldo int, skip bool) {
	panic("mat: productAVX without AVX")
}

func transposeAVX(rows, cols int, src, dst []float64) { panic("mat: transposeAVX without AVX") }

func distPackAVX(q, block, out []float64) { panic("mat: distPackAVX without AVX") }

func normMomentsAVX(x []float64, rows, n int, fn, eps float64, mean, inv []float64) {
	panic("mat: normMomentsAVX without AVX")
}

func normGradSumsAVX(g, xh, gain []float64, rows, n int, sumDx, sumDxXh []float64) {
	panic("mat: normGradSumsAVX without AVX")
}

func normRowsAVX(x, gain, bias, out, xhat, mean, inv []float64) {
	panic("mat: normRowsAVX without AVX")
}

func normGradRowsAVX(g, gain, xh, out, sumDx, sumDxXh, inv []float64, fn float64) {
	panic("mat: normGradRowsAVX without AVX")
}

func normParamGradAVX(g, xh, gainG, biasG []float64, rows, ld int) {
	panic("mat: normParamGradAVX without AVX")
}

func expAVX(x, out *[4]float64, fma bool) int { panic("mat: expAVX without AVX") }

func softmaxRowsAVX(x []float64, rows, n int, scale float64, fma bool) bool {
	panic("mat: softmaxRowsAVX without AVX")
}

func addAVX(dst, a, b []float64) { panic("mat: addAVX without AVX") }

func reluAVX(out []float64, keep []uint64, x []float64) { panic("mat: reluAVX without AVX") }

func gateAVX(out, g []float64, keep []uint64) { panic("mat: gateAVX without AVX") }

func sqDiffAVX(out, a, b []float64) { panic("mat: sqDiffAVX without AVX") }

func sqErrGradAVX(grad, pred, target []float64, n float64) float64 {
	panic("mat: sqErrGradAVX without AVX")
}

func concatAVX(out, a, b []float64, rows, na, nb int) { panic("mat: concatAVX without AVX") }

func simdMode() string { return "scalar" }
