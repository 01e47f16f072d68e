package mat

// SIMD dispatch for the fit-path kernels on amd64.
//
// The assembly kernels in simd_amd64.s all belong to one bit-exactness
// class: each output element is produced by exactly the sequence of
// IEEE-754 operations the scalar Go code runs on this host, just on four
// lanes at a time. For the arithmetic kernels that is a separate
// multiply and add, never a fused multiply-add. For the exp inside
// softmaxRowsAVX it is math.Exp's own amd64 sequence, which takes a
// fused branch on a CPU with AVX and FMA, so the kernel takes the same
// one. distPackAVX vectorises ACROSS points and productAVX
// ACROSS output columns — one lane per point or column, each lane's
// reduction running in element order — which is how a sum that may not
// be reassociated still gets SIMD throughput. Their results are
// bit-identical to the pure Go loops, so every float the package
// computes is the same at every dispatch level of one host.
//
// Feature detection is done once at init via CPUID/XGETBV (AVX needs
// both the CPU flag and OS-enabled YMM state). GOAMD64=v1 binaries
// therefore still run on any amd64 and light up the fast kernels only
// where the hardware has them.

// Implemented in simd_amd64.s.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// axpyAVX computes y[i] += alpha*x[i] for len(x) elements. len(x) must
// be a positive multiple of 8; the caller handles tails.
func axpyAVX(alpha float64, x, y []float64)

// adamAVX applies the Adam update to 4k elements and clears g (len(w)
// must be a positive multiple of 4; the caller handles tails). The
// per-element operation sequence matches AdamStep's scalar loop, less
// the division by a bc1 of exactly 1.
func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)

// productAVX is Product.Eval's kernel: the in-order strided product
// out = init + a·b with each output element accumulated in k-order by
// separate multiply and add lanes, bit-identical to the scalar loop.
// rows >= 1 and width >= 4; the caller has checked every extent (the
// kernel reads base pointers only). init may be nil.
//
//go:noescape
func productAVX(rows, inner, width int, a []float64, aRow, aK int, b []float64, ldb int, init []float64, ldi int, out []float64, ldo int, skip bool)

// transposeAVX writes the transpose of the row-major rows×cols src into
// dst in 4×4 register blocks. rows and cols must be at least 4.
//
//go:noescape
func transposeAVX(rows, cols int, src, dst []float64)

// distPackAVX computes the 8 squared Euclidean distances from q to one
// dim-major packed block. Per lane the accumulation runs in j-order
// with separate sub/mul/add, so each lane is bit-identical to a scalar
// SquaredEuclidean. len(block) = len(q)*8, len(out) = 8; len(q) may be
// 0 (out is zeroed). noescape: callers pass stack scratch from the
// query hot paths, which must stay alloc-free.
//
//go:noescape
func distPackAVX(q, block, out []float64)

// The layer-norm kernels behind kernels.go's Norm* functions, each
// replaying the scalar loop's operations per row and element:
// normMomentsAVX and normGradSumsAVX take rows >= 4 (one lane per row),
// normRowsAVX and normGradRowsAVX rows >= 1 of n >= 4 elements. fn is n
// as a float64.
//
//go:noescape
func normMomentsAVX(x []float64, rows, n int, fn, eps float64, mean, inv []float64)

//go:noescape
func normGradSumsAVX(g, xh, gain []float64, rows, n int, sumDx, sumDxXh []float64)

//go:noescape
func normRowsAVX(x, gain, bias, out, xhat, mean, inv []float64)

//go:noescape
func normGradRowsAVX(g, gain, xh, out, sumDx, sumDxXh, inv []float64, fn float64)

// normParamGradAVX adds Σ_i g[i][j]·xh[i][j] into gainG[j] and Σ_i
// g[i][j] into biasG[j], each column in row order, over rows >= 1 rows of
// leading dimension ld, for the len(gainG) leading columns (a positive
// multiple of 4; the caller handles the rest).
//
//go:noescape
func normParamGradAVX(g, xh, gainG, biasG []float64, rows, ld int)

// expAVX computes out = exp(x) per lane with math.Exp's amd64 operation
// sequence, its fused branch when fma is set: the sequence
// softmaxRowsAVX inlines, as an entry of its own for the tests. It
// returns the lanes (bits 0..3) that are not on that sequence's plain
// path — NaN, ±Inf, overflow, denormal or zero results — whose out is
// not math.Exp's.
//
//go:noescape
func expAVX(x, out *[4]float64, fma bool) int

// softmaxRowsAVX is SoftmaxRows' kernel over 1..softmaxChunk rows of
// n >= 4 elements, taking math.Exp's fused branch when fma is set. Where
// an exp of any row would leave the plain path it returns false with
// every row scaled in place and nothing else written.
//
//go:noescape
func softmaxRowsAVX(x []float64, rows, n int, scale float64, fma bool) bool

// The element-wise kernels behind elementwise.go, over the leading
// len(dst) or len(out) elements, a positive multiple of 4 (or of 4
// columns per part, for concatAVX); the callers handle tails.
//
//go:noescape
func addAVX(dst, a, b []float64)

//go:noescape
func reluAVX(out []float64, keep []uint64, x []float64)

//go:noescape
func gateAVX(out, g []float64, keep []uint64)

//go:noescape
func sqDiffAVX(out, a, b []float64)

//go:noescape
func sqErrGradAVX(grad, pred, target []float64, n float64) float64

//go:noescape
func concatAVX(out, a, b []float64, rows, na, nb int)

var (
	hasAVX bool // the assembly kernels are usable
	// hasFMA: the CPU has FMA too. No arithmetic kernel issues an FMA;
	// softmaxRowsAVX's exp takes math.Exp's fused branch exactly when
	// hasAVX && hasFMA, the condition math.Exp takes it on (its useFMA).
	hasFMA bool
)

func init() {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return
	}
	// XCR0 bits 1 (SSE) and 2 (YMM) must both be OS-enabled.
	xlo, _ := xgetbv0()
	if xlo&6 != 6 {
		return
	}
	hasAVX = true
	hasFMA = ecx&fmaBit != 0
}

// simdMode backs SIMDMode. The three names are keyed on by committed
// benchmark fixtures and must not change.
func simdMode() string {
	switch {
	case hasAVX && hasFMA:
		return "avx+fma"
	case hasAVX:
		return "avx"
	default:
		return "scalar"
	}
}
