package mat

import "fmt"

// Whole-layer dense kernels.
//
// Every matrix product on the bit-exact neural fit and score paths —
// dense forward, the three dense backward products, the attention head
// products — has one shape, which Product states once, with strides, so
// that a caller hands a whole layer (or attention head) to one kernel
// call instead of one axpy per (row, feature). DESIGN.md §11.

// Product is one in-order matrix product over strided operands:
//
//	Out[i·LdOut+j] = Init[i·LdInit+j] + Σ_k A[i·ARow+k·AK] · B[k·LdB+j]
//
// for i < Rows, j < Width. Every element accumulates k = 0..Inner-1
// strictly in order with a separate multiply and add — the AVX kernel
// vectorises ACROSS output columns, never along the reduction, and uses
// no FMA — so any shape yields the bits of the scalar loops. A has a row
// and a k stride (Aᵀ is the same memory with the two swapped); B, Init
// and Out are row-major blocks with a leading dimension, so a column
// slice of a wider matrix needs no copy. Init may be nil (sums start at
// +0), one row with LdInit 0 (a bias), or Out itself (accumulate in
// place); no other overlap with Out is supported. SkipZeros skips the
// terms whose A element is ±0, the dense layers' post-ReLU shortcut. It
// is observable in the bits (a skipped 0·Inf is no NaN, a skipped +0
// does not clear a -0), hence part of the contract; NaN never skips.
// One exception to "the bits of the scalar loops": the AVX kernel adds
// -0 for a skipped term where the loop adds nothing, which quiets a
// signalling NaN already in the sum (from Init) that the loop would
// leave signalling. No arithmetic produces one.
type Product struct {
	Rows, Inner, Width int
	A                  []float64
	ARow, AK           int
	B                  []float64
	LdB                int
	Init               []float64
	LdInit             int
	Out                []float64
	LdOut              int
	SkipZeros          bool
}

// span is the length a strided block needs: one past its largest index.
func span(rows, rowStride, cols, colStride int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*rowStride + (cols-1)*colStride + 1
}

// Eval computes the product. Operand extents are checked up front (the
// AVX kernel reads raw pointers); a mismatch is a programming error and
// panics.
func (p *Product) Eval() {
	if p.Rows < 0 || p.Inner < 0 || p.Width < 0 || p.ARow < 0 || p.AK < 0 || p.LdB < 0 || p.LdInit < 0 || p.LdOut < 0 ||
		span(p.Rows, p.ARow, p.Inner, p.AK) > len(p.A) || span(p.Inner, p.LdB, p.Width, 1) > len(p.B) ||
		span(p.Rows, p.LdOut, p.Width, 1) > len(p.Out) || (p.Init != nil && span(p.Rows, p.LdInit, p.Width, 1) > len(p.Init)) {
		panic(fmt.Sprintf("mat: Product %dx%dx%d: len(A)=%d (%d,%d) len(B)=%d (%d) len(Init)=%d (%d) len(Out)=%d (%d)",
			p.Rows, p.Inner, p.Width, len(p.A), p.ARow, p.AK, len(p.B), p.LdB, len(p.Init), p.LdInit, len(p.Out), p.LdOut))
	}
	p.eval()
}

// eval is Eval behind its extent checks, for the callers that have
// already made them: DenseFwd and DenseBwd hold every operand to its
// exact contiguous length, which bounds every extent Eval would derive.
func (p *Product) eval() {
	if p.Rows <= 0 || p.Width <= 0 {
		return
	}
	// The AVX kernel covers a strip's tail with a vector that overlaps
	// its neighbour, so it needs at least one full vector of columns.
	if hasAVX && p.Width >= 4 {
		productAVX(p.Rows, p.Inner, p.Width, p.A, p.ARow, p.AK, p.B, p.LdB, p.Init, p.LdInit, p.Out, p.LdOut, p.SkipZeros)
		return
	}
	for i := 0; i < p.Rows; i++ {
		out := p.Out[i*p.LdOut : i*p.LdOut+p.Width]
		if p.Init == nil {
			clear(out)
		} else {
			copy(out, p.Init[i*p.LdInit:i*p.LdInit+p.Width])
		}
		for k := 0; k < p.Inner; k++ {
			v := p.A[i*p.ARow+k*p.AK]
			if v == 0 && p.SkipZeros {
				continue
			}
			for j, bv := range p.B[k*p.LdB : k*p.LdB+p.Width] {
				out[j] += v * bv
			}
		}
	}
}

// DenseFwd computes a whole dense layer forward, out = b + x·W, for
// rows samples in one kernel call: x is rows×in, W is in×width, b has
// width elements, out is rows×width, all row-major and contiguous.
// Exact-zero inputs are skipped the way the scalar loop skips them
// (post-ReLU rows are sparse); the result is bit-identical to that loop
// at every dispatch level. Panics on length mismatch.
func DenseFwd(rows, in, width int, x, b, w, out []float64) {
	if len(x) != rows*in || len(b) != width || len(w) != in*width || len(out) != rows*width {
		panic(fmt.Sprintf("mat: DenseFwd %dx%dx%d: len(x)=%d len(b)=%d len(w)=%d len(out)=%d",
			rows, in, width, len(x), len(b), len(w), len(out)))
	}
	(&Product{Rows: rows, Inner: in, Width: width, A: x, ARow: in, AK: 1, B: w, LdB: width,
		Init: b, Out: out, LdOut: width, SkipZeros: true}).eval()
}

// one is the A operand of the bias-gradient column sum: with both
// strides 0 every term is 1·g, which is g exactly.
var one = []float64{1}

// DenseBwd computes a whole dense layer backward in one call, for rows
// samples with input x (rows×in) and output gradient g (rows×width):
//
//	db += Σ_i g[i]          dW += xᵀ·g          dx = g·Wᵀ
//
// Each db and dW element accumulates its samples in row order with a
// separate multiply and add, and each dx element is the in-order
// reduction over the layer's outputs, so all three are bit-identical to
// the scalar per-row loops. The dx reduction may not be reassociated,
// so it is vectorised across INPUTS instead — lane k carries dx[i][k] —
// over wT, a caller-owned in·width scratch this call fills with Wᵀ
// (the SquaredDistances8 technique). Panics on length mismatch.
func DenseBwd(rows, in, width int, x, g, w, wT, dW, db, dx []float64) {
	if len(x) != rows*in || len(g) != rows*width || len(w) != in*width || len(wT) != in*width ||
		len(dW) != in*width || len(db) != width || len(dx) != rows*in {
		panic(fmt.Sprintf("mat: DenseBwd %dx%dx%d: len(x)=%d len(g)=%d len(w)=%d len(wT)=%d len(dW)=%d len(db)=%d len(dx)=%d",
			rows, in, width, len(x), len(g), len(w), len(wT), len(dW), len(db), len(dx)))
	}
	(&Product{Rows: 1, Inner: rows, Width: width, A: one, B: g, LdB: width,
		Init: db, Out: db, LdOut: width}).eval()
	(&Product{Rows: in, Inner: rows, Width: width, A: x, ARow: 1, AK: in, B: g, LdB: width,
		Init: dW, LdInit: width, Out: dW, LdOut: width}).eval()
	transpose(wT, w, in, width)
	(&Product{Rows: rows, Inner: width, Width: in, A: g, ARow: width, AK: 1, B: wT, LdB: in,
		Out: dx, LdOut: in}).eval()
}
