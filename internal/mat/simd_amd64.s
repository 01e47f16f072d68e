#include "textflag.h"

// CPUID with explicit EAX/ECX inputs.
// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// XGETBV with ECX=0 (XCR0). Only called once OSXSAVE is confirmed.
// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// y[i] += alpha*x[i], len(x) a positive multiple of 8. Elementwise
// multiply-then-add (no FMA), so every lane produces exactly the bits
// of the scalar loop.
// func axpyAVX(alpha float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ x_len+16(FP), CX
	XORQ AX, AX

axpyloop:
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JL   axpyloop
	VZEROUPPER
	RET

// One Adam update over 4k elements (len(w) a positive multiple of 4).
// The lane arithmetic replays adamScalar's exact operation sequence —
// separate multiplies and adds, correctly-rounded VSQRTPD/VDIVPD — so
// the result is bit-identical to the pure Go loop.
// func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)
TEXT ·adamAVX(SB), NOSPLIT, $0-160
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w_len+8(FP), CX
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD omb1+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y10
	VBROADCASTSD omb2+120(FP), Y11
	VBROADCASTSD bc1+128(FP), Y12
	VBROADCASTSD bc2+136(FP), Y13
	VBROADCASTSD lr+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ AX, AX

adamloop:
	VMOVUPD (SI)(AX*8), Y0      // g
	VMOVUPD (R8)(AX*8), Y1      // m
	VMOVUPD (R9)(AX*8), Y2      // v
	VMULPD  Y8, Y1, Y1          // b1*m
	VMULPD  Y9, Y0, Y3          // omb1*g
	VADDPD  Y3, Y1, Y1          // m' = b1*m + omb1*g
	VMULPD  Y10, Y2, Y2         // b2*v
	VMULPD  Y11, Y0, Y4         // omb2*g
	VMULPD  Y0, Y4, Y4          // (omb2*g)*g
	VADDPD  Y4, Y2, Y2          // v' = b2*v + omb2*g*g
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y12, Y1, Y1         // mh = m'/bc1
	VDIVPD  Y13, Y2, Y2         // vh = v'/bc2
	VSQRTPD Y2, Y2              // sqrt(vh)
	VADDPD  Y15, Y2, Y2         // sqrt(vh)+eps
	VMULPD  Y14, Y1, Y1         // lr*mh
	VDIVPD  Y2, Y1, Y1          // step = lr*mh/(sqrt(vh)+eps)
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5          // w -= step
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   adamloop
	VZEROUPPER
	RET

// In-order strided matrix product, the one kernel behind every dense
// layer pass and attention head product (see Product in dense.go):
//
//	out[i*ldo+j] = init[i*ldi+j] + Σ_k a[i*aRow+k*aK] * b[k*ldb+j]
//
// Each output element accumulates in k-order with a separate VMULPD and
// VADDPD (never an FMA), so the result is bit-identical to the scalar
// loop; the kernel only vectorises ACROSS output columns. rows >= 1 and
// width >= 4 (the Go wrapper takes narrower shapes); inner may be 0.
//
// A row's columns are cut into strips that live in YMM accumulators for
// the whole k loop — no out-row load or store per k. A strip is 16
// columns (4 vectors) while at least 20 remain, and the last strip takes
// the remaining 4..19 columns in ceil(n/4) <= 5 vectors whose LAST one
// is placed at column n-4, overlapping its neighbour: the overlapped
// lanes compute the same value twice from the same inputs, so no masked
// load or scalar tail is needed and widths 6, 12, 15, 18 and 24 all stay
// in registers. Strips are column-disjoint and a strip loads init before
// it stores out, so init may alias out (accumulate in place).
//
// An a element of +-0 is skipped when skip is set (the dense layers'
// post-ReLU shortcut); it is tested on its integer bits, so NaN is
// never skipped. init_base == nil starts every sum at +0.
//
// Registers: R15 rows left, R8/SI/DX the row's a/init/out, DI b, R9/R10
// the aK/ldb byte strides, R14 skip; per strip CX its byte offset and BX
// the last vector's byte offset within it; per k R11 the countdown,
// R12/R13 the a element and the b row strip; Y8 the broadcast a element.

#define PLD(off, acc) VMOVUPD off(AX), acc
#define PLDL(acc)     VMOVUPD (AX)(BX*1), acc
#define PST(off, acc) VMOVUPD acc, off(AX)
#define PSTL(acc)     VMOVUPD acc, (AX)(BX*1)
#define PZ(acc)       VXORPD acc, acc, acc
#define PMAC(off, acc, tmp) VMULPD off(R13), Y8, tmp; VADDPD tmp, acc, acc
#define PMACL(acc, tmp)     VMULPD (R13)(BX*1), Y8, tmp; VADDPD tmp, acc, acc

#define PLOAD1 PLDL(Y0)
#define PLOAD2 PLD(0, Y0); PLDL(Y1)
#define PLOAD3 PLD(0, Y0); PLD(32, Y1); PLDL(Y2)
#define PLOAD4 PLD(0, Y0); PLD(32, Y1); PLD(64, Y2); PLDL(Y3)
#define PLOAD5 PLD(0, Y0); PLD(32, Y1); PLD(64, Y2); PLD(96, Y3); PLDL(Y4)
#define PZERO1 PZ(Y0)
#define PZERO2 PZ(Y0); PZ(Y1)
#define PZERO3 PZ(Y0); PZ(Y1); PZ(Y2)
#define PZERO4 PZ(Y0); PZ(Y1); PZ(Y2); PZ(Y3)
#define PZERO5 PZ(Y0); PZ(Y1); PZ(Y2); PZ(Y3); PZ(Y4)
#define PMACS1 PMACL(Y0, Y9)
#define PMACS2 PMAC(0, Y0, Y9); PMACL(Y1, Y10)
#define PMACS3 PMAC(0, Y0, Y9); PMAC(32, Y1, Y10); PMACL(Y2, Y11)
#define PMACS4 PMAC(0, Y0, Y9); PMAC(32, Y1, Y10); PMAC(64, Y2, Y11); PMACL(Y3, Y12)
#define PMACS5 PMAC(0, Y0, Y9); PMAC(32, Y1, Y10); PMAC(64, Y2, Y11); PMAC(96, Y3, Y12); PMACL(Y4, Y13)
#define PSTORE1 PSTL(Y0)
#define PSTORE2 PST(0, Y0); PSTL(Y1)
#define PSTORE3 PST(0, Y0); PST(32, Y1); PSTL(Y2)
#define PSTORE4 PST(0, Y0); PST(32, Y1); PST(64, Y2); PSTL(Y3)
#define PSTORE5 PST(0, Y0); PST(32, Y1); PST(64, Y2); PST(96, Y3); PSTL(Y4)

// func productAVX(rows, inner, width int, a []float64, aRow, aK int, b []float64, ldb int, init []float64, ldi int, out []float64, ldo int, skip bool)
TEXT ·productAVX(SB), NOSPLIT, $8-161
// One strip: load (or zero) the accumulators, run the k loop, store.
// (Defined inside the function so vet checks its FP reference here.)
#define PSTRIP(zero, run, loop, do, next, store, LOADS, ZEROS, MACS, STORES) \
	TESTQ SI, SI; \
	JZ   zero; \
	LEAQ (SI)(CX*1), AX; \
	LOADS; \
	JMP  run; \
zero: \
	ZEROS; \
run: \
	MOVQ inner+8(FP), R11; \
	TESTQ R11, R11; \
	JZ   store; \
	MOVQ R8, R12; \
	LEAQ (DI)(CX*1), R13; \
loop: \
	MOVQ (R12), AX; \
	ADDQ AX, AX; \
	JNZ  do; \
	TESTQ R14, R14; \
	JNZ  next; \
do: \
	VBROADCASTSD (R12), Y8; \
	MACS; \
next: \
	ADDQ R9, R12; \
	ADDQ R10, R13; \
	DECQ R11; \
	JNZ  loop; \
store: \
	LEAQ (DX)(CX*1), AX; \
	STORES; \
	JMP  pstripdone

	MOVQ rows+0(FP), R15
	MOVQ a_base+24(FP), R8
	MOVQ aK+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), DI
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ init_base+96(FP), SI
	MOVQ out_base+128(FP), DX
	MOVBQZX skip+160(FP), R14

prow:
	XORQ CX, CX
	MOVQ width+16(FP), AX
pstrip:
	CMPQ AX, $20
	JLT  plast
	SUBQ $16, AX
	MOVQ AX, left-8(SP)
	MOVQ $96, BX
	JMP  pn4
plast:
	MOVQ $0, left-8(SP)
	LEAQ -32(AX*8), BX
	ADDQ $3, AX
	SHRQ $2, AX
	CMPQ AX, $2
	JLT  pn1
	JEQ  pn2
	CMPQ AX, $4
	JLT  pn3
	JEQ  pn4
	PSTRIP(pz5, pr5, pl5, pd5, px5, ps5, PLOAD5, PZERO5, PMACS5, PSTORE5)
pn4:
	PSTRIP(pz4, pr4, pl4, pd4, px4, ps4, PLOAD4, PZERO4, PMACS4, PSTORE4)
pn3:
	PSTRIP(pz3, pr3, pl3, pd3, px3, ps3, PLOAD3, PZERO3, PMACS3, PSTORE3)
pn2:
	PSTRIP(pz2, pr2, pl2, pd2, px2, ps2, PLOAD2, PZERO2, PMACS2, PSTORE2)
pn1:
	PSTRIP(pz1, pr1, pl1, pd1, px1, ps1, PLOAD1, PZERO1, PMACS1, PSTORE1)
pstripdone:
	ADDQ $128, CX
	MOVQ left-8(SP), AX
	TESTQ AX, AX
	JNZ  pstrip

	MOVQ aRow+48(FP), AX
	LEAQ (R8)(AX*8), R8
	MOVQ ldo+152(FP), AX
	LEAQ (DX)(AX*8), DX
	TESTQ SI, SI
	JZ   pnextrow
	MOVQ ldi+120(FP), AX
	LEAQ (SI)(AX*8), SI
pnextrow:
	DECQ R15
	JNZ  prow
	VZEROUPPER
	RET

// dst = srcᵀ for a row-major rows×cols src (dst is cols×rows), in 4×4
// register blocks: four row loads, VUNPCK{L,H}PD + VPERM2F128, four
// column stores. rows, cols >= 4. A dimension that is not a multiple of
// 4 ends with a block placed at n-4, overlapping its neighbour — the
// overlapped elements are simply copied twice.
// func transposeAVX(rows, cols int, src, dst []float64)
TEXT ·transposeAVX(SB), NOSPLIT, $0-64
	MOVQ rows+0(FP), R8
	MOVQ cols+8(FP), R9
	MOVQ src_base+16(FP), SI
	MOVQ dst_base+40(FP), DI
	LEAQ (R8*8), R10        // dst row stride, bytes
	LEAQ (R9*8), R11        // src row stride, bytes
	LEAQ -4(R8), R12        // last block row
	LEAQ -4(R9), R13        // last block column
	XORQ AX, AX
trow:
	MOVQ AX, BX             // block row = min(AX, rows-4)
	CMPQ BX, R12
	CMOVQGT R12, BX
	XORQ CX, CX
tcol:
	MOVQ CX, DX             // block column = min(CX, cols-4)
	CMPQ DX, R13
	CMOVQGT R13, DX
	MOVQ BX, R14
	IMULQ R9, R14
	ADDQ DX, R14
	LEAQ (SI)(R14*8), R14   // &src[BX*cols+DX]
	VMOVUPD (R14), Y0
	VMOVUPD (R14)(R11*1), Y1
	LEAQ (R14)(R11*2), R14
	VMOVUPD (R14), Y2
	VMOVUPD (R14)(R11*1), Y3
	VUNPCKLPD Y1, Y0, Y4    // a0 b0 a2 b2
	VUNPCKHPD Y1, Y0, Y5    // a1 b1 a3 b3
	VUNPCKLPD Y3, Y2, Y6    // c0 d0 c2 d2
	VUNPCKHPD Y3, Y2, Y7    // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y8   // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y9   // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y10  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y11  // a3 b3 c3 d3
	MOVQ DX, R14
	IMULQ R8, R14
	ADDQ BX, R14
	LEAQ (DI)(R14*8), R14   // &dst[DX*rows+BX]
	VMOVUPD Y8, (R14)
	VMOVUPD Y9, (R14)(R10*1)
	LEAQ (R14)(R10*2), R14
	VMOVUPD Y10, (R14)
	VMOVUPD Y11, (R14)(R10*1)
	ADDQ $4, CX
	CMPQ CX, R9
	JLT  tcol
	ADDQ $4, AX
	CMPQ AX, R8
	JLT  trow
	VZEROUPPER
	RET

// Squared Euclidean distances from q to the 8 points of one dim-major
// packed block: out[p] = Σ_j (q[j]-block[j*8+p])², accumulated in
// j-order per lane with separate subtract/multiply/add (no FMA), so
// every lane produces exactly the bits of a scalar SquaredEuclidean
// over that point. len(q) = dim (0 allowed: out is zeroed),
// len(block) = dim*8, len(out) = 8.
// func distPackAVX(q, block, out []float64)
TEXT ·distPackAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX    // dim
	MOVQ block_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	VXORPD Y4, Y4, Y4       // acc lanes 0..3
	VXORPD Y5, Y5, Y5       // acc lanes 4..7
	XORQ AX, AX             // j
	TESTQ CX, CX
	JZ   dpdone
dploop:
	VBROADCASTSD (SI)(AX*8), Y0
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VSUBPD  Y1, Y0, Y1      // q[j] - p[j], lanes 0..3
	VSUBPD  Y2, Y0, Y2      // lanes 4..7
	VMULPD  Y1, Y1, Y1
	VMULPD  Y2, Y2, Y2
	VADDPD  Y1, Y4, Y4
	VADDPD  Y2, Y5, Y5
	ADDQ $64, DI
	INCQ AX
	CMPQ AX, CX
	JL   dploop
dpdone:
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VZEROUPPER
	RET

// One layer-norm output row: out[j] = ((x[j]-m)*inv)*gain[j] + bias[j]
// — the exact scalar operation sequence (separate subtract and two
// multiplies, never an FMA), four lanes at a time, so the result is
// bit-identical to the Go loop. len(x) a positive multiple of 4; the
// caller handles tails.
// func normRowAVX(x, gain, bias, out []float64, m, inv float64)
TEXT ·normRowAVX(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ gain_base+24(FP), R8
	MOVQ bias_base+48(FP), R9
	MOVQ out_base+72(FP), DX
	VBROADCASTSD m+96(FP), Y8
	VBROADCASTSD inv+104(FP), Y9
	XORQ AX, AX
nrloop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y8, Y0, Y0            // x - m
	VMULPD  Y9, Y0, Y0            // * inv
	VMULPD  (R8)(AX*8), Y0, Y0    // * gain
	VADDPD  (R9)(AX*8), Y0, Y0    // + bias
	VMOVUPD Y0, (DX)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   nrloop
	VZEROUPPER
	RET
