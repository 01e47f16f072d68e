package mat

import (
	"fmt"
	"math"
)

// Dense fit-path kernels.
//
// These are the building blocks the neural fit path (internal/nn) is
// written against, next to the whole-layer products of dense.go. Two
// properties matter as much as speed:
//
//   - Determinism: every kernel replays the operation sequence the
//     scalar code runs on this host per output element (elementwise
//     lanes, in-order reductions, and a fused multiply-add only where
//     that code has one: math.Exp's, inside SoftmaxRows), so it is
//     bit-identical to the scalar loop it replaces at every dispatch
//     level. No kernel reassociates.
//   - Zero allocation: every kernel writes into a caller-owned dst. The
//     only allocations are inside EnsureShape when a scratch matrix has
//     to grow, which happens once per layer lifetime.

// EnsureShape reshapes m to r×c, reusing the backing slice when it is
// large enough and reallocating (once) when it is not. Contents are NOT
// zeroed; callers that accumulate must clear m.Data. It returns m.
func (m *Matrix) EnsureShape(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: EnsureShape(%d, %d): negative dimension", r, c))
	}
	n := r * c
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = r, c
	return m
}

// AddScaled computes dst[i] += alpha*x[i] (the BLAS axpy). Elements are
// independent, so both the four-wide unrolled Go loop and the AVX kernel
// (separate VMULPD/VADDPD per lane, never an FMA) produce bits identical
// to the scalar loop. It panics on length mismatch — the kernels are
// internal plumbing, so a mismatch is a programming error.
func AddScaled(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: AddScaled: len(dst)=%d len(x)=%d", len(dst), len(x)))
	}
	i := 0
	if hasAVX && len(dst) >= 8 {
		n := len(dst) &^ 7
		axpyAVX(alpha, x[:n], dst[:n])
		i = n
	}
	n := i + (len(dst)-i)&^3
	for ; i < n; i += 4 {
		dst[i] += alpha * x[i]
		dst[i+1] += alpha * x[i+1]
		dst[i+2] += alpha * x[i+2]
		dst[i+3] += alpha * x[i+3]
	}
	for ; i < len(dst); i++ {
		dst[i] += alpha * x[i]
	}
}

// AdamStep applies one Adam optimiser update in place:
//
//	m = β1·m + (1-β1)·g
//	v = β2·v + (1-β2)·g²
//	w -= lr · (m/bc1) / (sqrt(v/bc2) + eps)
//
// where bc1/bc2 are the bias-correction denominators 1-β1ᵗ and 1-β2ᵗ,
// and clears g behind the update (the pass that reads a gradient is the
// one that zeroes it). The update is elementwise, and the AVX kernel
// replays the scalar operation sequence with correctly-rounded vector
// ops — leaving out only a division by a bc1 of exactly 1, which
// changes no operand — so SIMD and scalar produce identical bits.
// Panics on length mismatch.
func AdamStep(w, g, m, v []float64, beta1, beta2, bc1, bc2, lr, eps float64) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("mat: AdamStep: len(w)=%d len(g)=%d len(m)=%d len(v)=%d",
			len(w), len(g), len(m), len(v)))
	}
	omb1, omb2 := 1-beta1, 1-beta2
	i := 0
	if hasAVX && len(w) >= 4 {
		n := len(w) &^ 3
		adamAVX(w[:n], g[:n], m[:n], v[:n], beta1, omb1, beta2, omb2, bc1, bc2, lr, eps)
		i = n
	}
	for ; i < len(w); i++ {
		gj := g[i]
		m[i] = beta1*m[i] + omb1*gj
		v[i] = beta2*v[i] + omb2*gj*gj
		mh := m[i] / bc1
		vh := v[i] / bc2
		w[i] -= lr * mh / (math.Sqrt(vh) + eps)
		g[i] = 0
	}
}

// DistLanes is the point count of one packed distance block: the
// granule at which SquaredDistances8 processes a point set. Consumers
// (the neighbour indexes) pack points dim-major in groups of DistLanes
// and scan the remainder scalar.
const DistLanes = 8

// SquaredDistances8 computes the squared Euclidean distances from q to
// the DistLanes points of one packed block: out[p] = Σ_j (q[j]-P_p[j])²
// where element j of point p lives at block[j*DistLanes+p] (dim-major
// packing). Every lane accumulates its own point's sum in j-order with
// separate subtract/multiply/add — the exact SquaredEuclidean scalar
// sequence — so each distance is bit-identical to a per-point scalar
// call at every dispatch level. The kernel vectorises across points
// instead of within one, which is the only way to give an
// unreassociable in-order reduction SIMD throughput. len(q) may be 0
// (all distances are 0). Panics on length mismatch.
func SquaredDistances8(q, block, out []float64) {
	dim := len(q)
	if len(block) != dim*DistLanes || len(out) != DistLanes {
		panic(fmt.Sprintf("mat: SquaredDistances8: len(q)=%d len(block)=%d len(out)=%d",
			dim, len(block), len(out)))
	}
	if hasAVX {
		distPackAVX(q, block, out)
		return
	}
	for p := range out {
		out[p] = 0
	}
	for j := 0; j < dim; j++ {
		qj := q[j]
		row := block[j*DistLanes : j*DistLanes+DistLanes]
		for p, bv := range row {
			d := qj - bv
			out[p] += d * d
		}
	}
}

// SoftmaxRows replaces each n-element row of x with the softmax of the
// row scaled by scale, in the order of one scalar loop per row: scale,
// max, exp of each element less the max, the sum in index order, and a
// multiply by the sum's reciprocal. The AVX kernel runs the max and the
// sum as the same in-order chains and replays math.Exp's own operation
// sequence per lane — its fused branch exactly where math.Exp takes it
// — so every weight is bit-identical to softmaxRow at every dispatch
// level. The kernel takes up to softmaxChunk rows per call, so the exps
// of different rows overlap; a chunk where an exp would leave math.Exp's
// plain path (a NaN or infinite score, or a weight that underflows to a
// denormal or zero) is finished by the scalar loop. Panics unless n > 0
// divides len(x).
func SoftmaxRows(x []float64, n int, scale float64) {
	if n <= 0 || len(x)%n != 0 {
		panic(fmt.Sprintf("mat: SoftmaxRows: len(x)=%d n=%d", len(x), n))
	}
	if !hasAVX || n < 4 {
		for ; len(x) > 0; x = x[n:] {
			softmaxRow(x[:n], scale)
		}
		return
	}
	for len(x) > 0 {
		rows := min(len(x)/n, softmaxChunk)
		chunk := x[:rows*n]
		x = x[rows*n:]
		if !softmaxRowsAVX(chunk, rows, n, scale, hasFMA) {
			for ; len(chunk) > 0; chunk = chunk[n:] {
				softmaxScaled(chunk[:n]) // the kernel scaled the rows, nothing else
			}
		}
	}
}

// softmaxChunk is the most rows one softmaxRowsAVX call takes: its frame
// holds one max per row.
const softmaxChunk = 8

// softmaxRow is the scalar row softmax SoftmaxRows replays.
func softmaxRow(row []float64, scale float64) {
	for j := range row {
		row[j] *= scale
	}
	softmaxScaled(row)
}

// softmaxScaled is softmaxRow after the scale.
func softmaxScaled(row []float64) {
	maxv := math.Inf(-1)
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j := range row {
		row[j] = math.Exp(row[j] - maxv)
		sum += row[j]
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
	}
}

// SIMDMode reports the running CPU's vector class: "scalar", "avx" or
// "avx+fma". The arithmetic kernels dispatch on AVX alone and issue no
// fused multiply-add; "+fma" also selects the fused branch of the
// softmax kernel's exp, because math.Exp takes that branch on such a
// CPU. Benchmark headers record it so numbers are interpretable across
// machines.
func SIMDMode() string { return simdMode() }

// TransposeInto writes mᵀ into dst (reshaped to Cols×Rows) and returns
// dst. dst must not alias m.
func (m *Matrix) TransposeInto(dst *Matrix) *Matrix {
	if dst == m {
		panic("mat: TransposeInto: dst must not alias m")
	}
	transpose(dst.EnsureShape(m.Cols, m.Rows).Data, m.Data, m.Rows, m.Cols)
	return dst
}

// transpose writes the transpose of the row-major rows×cols src into dst.
func transpose(dst, src []float64, rows, cols int) {
	if hasAVX && rows >= 4 && cols >= 4 {
		transposeAVX(rows, cols, src, dst)
		return
	}
	for i := 0; i < rows; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}
