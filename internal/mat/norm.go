package mat

import (
	"fmt"
	"math"
)

// Layer-norm kernels: a layer norm's per-row sums, its normalised rows,
// its input gradient and its parameter gradients, each over a whole
// row-major block in one call, in the operation order of the scalar loops
// below, so SIMD and scalar dispatch produce identical bits. The per-row
// sums are in-order reductions; the AVX kernels keep each one in order by
// giving every row its own lane, four rows at a time. Every function
// panics on length mismatch.

// NormMoments writes, for each of the len(mean) n-wide rows of x, the
// mean and the inverse deviation 1/sqrt(var+eps) — the sums Mean and
// Variance take, in index order.
func NormMoments(x []float64, n int, eps float64, mean, inv []float64) {
	rows := len(mean)
	if n <= 0 || len(inv) != rows || len(x) != rows*n {
		panic(fmt.Sprintf("mat: NormMoments: len(x)=%d n=%d len(mean)=%d len(inv)=%d", len(x), n, rows, len(inv)))
	}
	if hasAVX && rows >= 4 {
		normMomentsAVX(x, rows, n, float64(n), eps, mean, inv)
		return
	}
	for r := range mean {
		row := x[r*n : (r+1)*n]
		var m float64
		for _, v := range row {
			m += v
		}
		m /= float64(n)
		var ss float64
		for _, v := range row {
			d := v - m
			ss += d * d
		}
		mean[r], inv[r] = m, 1/math.Sqrt(ss/float64(n)+eps)
	}
}

// NormRows writes each row's normalised form xhat[r][j] =
// (x[r][j]-mean[r])*inv[r] and output out[r][j] = xhat[r][j]*gain[j] +
// bias[j] for the len(mean) rows of x, len(gain) wide. xhat may be nil
// when only out is wanted; out must not overlap x.
func NormRows(x, gain, bias, out, xhat, mean, inv []float64) {
	n, rows := len(gain), len(mean)
	if xhat == nil {
		xhat = out // written first, then overwritten by out
	}
	if len(bias) != n || len(inv) != rows || len(x) != rows*n || len(out) != rows*n || len(xhat) != rows*n {
		panic(fmt.Sprintf("mat: NormRows: len(x)=%d len(gain)=%d len(bias)=%d len(out)=%d len(xhat)=%d len(mean)=%d len(inv)=%d",
			len(x), n, len(bias), len(out), len(xhat), rows, len(inv)))
	}
	if hasAVX && n >= 4 && rows > 0 {
		normRowsAVX(x, gain, bias, out, xhat, mean, inv)
		return
	}
	for i := range x {
		r, j := i/n, i%n
		h := (x[i] - mean[r]) * inv[r]
		xhat[i] = h
		out[i] = h*gain[j] + bias[j]
	}
}

// NormGradSums writes, for each of the len(sumDx) rows of g and xh,
// len(gain) wide, the two sums of dxhat = g·gain a layer norm's input
// gradient needs: sumDx[r] = Σ_j dxhat[r][j] and sumDxXh[r] = Σ_j
// dxhat[r][j]·xh[r][j], in index order.
func NormGradSums(g, xh, gain, sumDx, sumDxXh []float64) {
	n, rows := len(gain), len(sumDx)
	if n == 0 || len(sumDxXh) != rows || len(g) != rows*n || len(xh) != rows*n {
		panic(fmt.Sprintf("mat: NormGradSums: len(g)=%d len(xh)=%d len(gain)=%d len(sumDx)=%d len(sumDxXh)=%d",
			len(g), len(xh), n, rows, len(sumDxXh)))
	}
	if hasAVX && rows >= 4 {
		normGradSumsAVX(g, xh, gain, rows, n, sumDx, sumDxXh)
		return
	}
	for r := range sumDx {
		gr, hr := g[r*n:(r+1)*n], xh[r*n:(r+1)*n]
		var a, b float64
		for j, gj := range gr {
			// The conversion rounds g·gain where a compiler would
			// otherwise fuse it into the sum (arm64).
			dh := float64(gj * gain[j])
			a += dh
			b += dh * hr[j]
		}
		sumDx[r], sumDxXh[r] = a, b
	}
}

// NormGradRows writes a layer norm's input gradient for the len(sumDx)
// rows of g and xh, len(gain) wide: out[r][j] = (g[r][j]·gain[j] -
// sumDx[r]/n - xh[r][j]·sumDxXh[r]/n) · inv[r] with n = len(gain), the
// product g·gain rounded before the subtraction, as the layer's legacy
// loop stores it. out must not overlap g or xh.
func NormGradRows(g, gain, xh, out, sumDx, sumDxXh, inv []float64) {
	n, rows := len(gain), len(sumDx)
	if len(sumDxXh) != rows || len(inv) != rows || len(g) != rows*n || len(xh) != rows*n || len(out) != rows*n {
		panic(fmt.Sprintf("mat: NormGradRows: len(g)=%d len(gain)=%d len(xh)=%d len(out)=%d len(sumDx)=%d len(sumDxXh)=%d len(inv)=%d",
			len(g), n, len(xh), len(out), rows, len(sumDxXh), len(inv)))
	}
	fn := float64(n)
	if hasAVX && n >= 4 && rows > 0 {
		normGradRowsAVX(g, gain, xh, out, sumDx, sumDxXh, inv, fn)
		return
	}
	for r := range sumDx {
		mean, s, iv := sumDx[r]/fn, sumDxXh[r], inv[r]
		gr, hr, or := g[r*n:(r+1)*n], xh[r*n:(r+1)*n], out[r*n:(r+1)*n]
		for j, gj := range gr {
			or[j] = (float64(gj*gain[j]) - mean - hr[j]*s/fn) * iv
		}
	}
}

// NormParamGrads adds a layer norm's parameter gradients for the rows of
// g and xh (row-major, len(gainG) wide): gainG[j] += g[i][j]·xh[i][j]
// and biasG[j] += g[i][j], each column's sums in row order, as one pass
// of per-row loops accumulates them. The AVX kernel keeps a strip of four
// columns' sums in registers across the rows.
func NormParamGrads(gainG, biasG, g, xh []float64) {
	w := len(gainG)
	if len(biasG) != w || len(xh) != len(g) || w == 0 || len(g)%w != 0 {
		panic(fmt.Sprintf("mat: NormParamGrads: len(gainG)=%d len(biasG)=%d len(g)=%d len(xh)=%d",
			w, len(biasG), len(g), len(xh)))
	}
	rows, j := len(g)/w, 0
	if hasAVX && w >= 4 && rows > 0 {
		j = w &^ 3
		normParamGradAVX(g, xh, gainG[:j], biasG[:j], rows, w)
	}
	for i := 0; i < rows; i++ {
		gi, hi := g[i*w:(i+1)*w], xh[i*w:(i+1)*w]
		for c := j; c < w; c++ {
			gainG[c] += gi[c] * hi[c]
			biasG[c] += gi[c]
		}
	}
}
