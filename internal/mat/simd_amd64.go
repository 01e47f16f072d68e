package mat

// SIMD dispatch for the fit-path kernels on amd64.
//
// The assembly kernels in simd_amd64.s — axpyAVX, adamAVX, normRowAVX,
// distPackAVX, productAVX and transposeAVX — all belong to one
// bit-exactness class: each output element is produced by exactly the
// scalar sequence of IEEE-754 operations (separate multiply and add —
// never a fused multiply-add), just on four lanes at a time.
// distPackAVX vectorises ACROSS points and productAVX ACROSS output
// columns — one lane per point or column, each lane's reduction running
// in element order — which is how a sum that may not be reassociated
// still gets SIMD throughput. Their results are bit-identical to the
// pure Go loops, so every float the package computes is the same at
// every dispatch level.
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

// normRowAVX computes out[j] = ((x[j]-m)*inv)*gain[j] + bias[j] with
// the exact scalar operation sequence per lane (bit-identical). len(x)
// must be a positive multiple of 4; the caller handles tails.
//
//go:noescape
func normRowAVX(x, gain, bias, out []float64, m, inv float64)

var (
	hasAVX bool // the assembly kernels are usable
	hasFMA bool // reported by SIMDMode only: no kernel issues an FMA
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
