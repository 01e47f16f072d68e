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

// One Adam update over 4k elements (len(w) a positive multiple of 4),
// clearing g behind it. The lane arithmetic replays adamScalar's exact
// operation sequence — separate multiplies and adds, correctly-rounded
// VSQRTPD/VDIVPD — so the result is bit-identical to the pure Go loop.
// The loop is bound by the divider (three divisions and a square root
// per vector), so when bc1 is exactly 1 — 1-0.9^t rounds to it from
// t = 356 on — the m'/bc1 division is left out: x/1 is x for every x,
// NaN, infinities, -0 and denormals included.
//
// ADAMMOMENTS leaves m' in Y1 and v' in Y2; ADAMUPDATE takes mh in Y1.
#define ADAMMOMENTS \
	VMOVUPD (SI)(AX*8), Y0      /* g */; \
	VMOVUPD (R8)(AX*8), Y1      /* m */; \
	VMOVUPD (R9)(AX*8), Y2      /* v */; \
	VMOVUPD Y7, (SI)(AX*8)      /* g = 0 */; \
	VMULPD  Y8, Y1, Y1          /* b1*m */; \
	VMULPD  Y9, Y0, Y3          /* omb1*g */; \
	VADDPD  Y3, Y1, Y1          /* m' = b1*m + omb1*g */; \
	VMULPD  Y10, Y2, Y2         /* b2*v */; \
	VMULPD  Y11, Y0, Y4         /* omb2*g */; \
	VMULPD  Y0, Y4, Y4          /* (omb2*g)*g */; \
	VADDPD  Y4, Y2, Y2          /* v' = b2*v + omb2*g*g */; \
	VMOVUPD Y1, (R8)(AX*8); \
	VMOVUPD Y2, (R9)(AX*8)
#define ADAMUPDATE \
	VDIVPD  Y13, Y2, Y2         /* vh = v'/bc2 */; \
	VSQRTPD Y2, Y2              /* sqrt(vh) */; \
	VADDPD  Y15, Y2, Y2         /* sqrt(vh)+eps */; \
	VMULPD  Y14, Y1, Y1         /* lr*mh */; \
	VDIVPD  Y2, Y1, Y1          /* step = lr*mh/(sqrt(vh)+eps) */; \
	VMOVUPD (DI)(AX*8), Y5; \
	VSUBPD  Y1, Y5, Y5          /* w -= step */; \
	VMOVUPD Y5, (DI)(AX*8); \
	ADDQ $4, AX; \
	CMPQ AX, CX

// func adamAVX(w, g, m, v []float64, b1, omb1, b2, omb2, bc1, bc2, lr, eps float64)
TEXT ·adamAVX(SB), NOSPLIT, $0-160
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w_len+8(FP), CX
	VXORPD Y7, Y7, Y7
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD omb1+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y10
	VBROADCASTSD omb2+120(FP), Y11
	VBROADCASTSD bc1+128(FP), Y12
	VBROADCASTSD bc2+136(FP), Y13
	VBROADCASTSD lr+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ AX, AX
	MOVQ $0x3FF0000000000000, DX
	CMPQ DX, bc1+128(FP)
	JEQ  adamone

adamloop:
	ADAMMOMENTS
	VDIVPD  Y12, Y1, Y1         // mh = m'/bc1
	ADAMUPDATE
	JL   adamloop
	VZEROUPPER
	RET

adamone:
	ADAMMOMENTS                 // mh = m'/1 = m'
	ADAMUPDATE
	JL   adamone
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
// The columns are cut into strips: 16 columns (4 vectors) while at least
// 20 remain, and a last strip of the remaining 4..19 columns in
// ceil(n/4) <= 5 vectors whose LAST one is placed at column n-4,
// overlapping its neighbour. The overlapped lanes compute the same value
// twice from the same inputs, so no masked load or scalar tail is needed
// and widths 6, 12, 15, 18 and 24 all stay in registers.
//
// A strip is walked in blocks of rows whose outputs live in YMM
// accumulators for the whole k loop — no out load or store per k — and
// share each loop iteration and each b row: 2 rows while 2 remain, else
// 1. One row's k step is 1..5 multiply-add chains bound by the add
// latency; a 2-row block runs 2..10 independent ones, which is what
// fills the FP pipes. The rows of a block never mix: each keeps its own
// accumulators. Blocks are disjoint in out and a block loads init before
// it stores out, so init may alias out (accumulate in place).
//
// With skip set, a term whose a element is +-0 is left out (the dense
// layers' post-ReLU shortcut), and no branch is taken on the element:
// half of a post-ReLU row is zero in no order a predictor can learn, and
// a mispredicted branch costs more than the multiply-add it saves. The
// k step multiplies skipterm's -0 and a strip of ones in place of the
// element and the b row strip instead — both addresses are swapped by a
// conditional move on the element's integer bits, so NaN never skips —
// and the product, -0, changes no sum: x + -0 is x for every x, -0 and
// +0 included, whatever the skipped b row held. (The one x it touches
// is a signalling NaN from init, which the add quiets and the scalar
// loop's continue does not; Product's comment carries the exception.)
// Most a operands hold no zero at all (only a ReLU's output does), so a
// contiguous one is scanned first, and where there is none, and always
// without skip, the k step examines nothing. init_base == nil starts
// every sum at +0.
//
// Registers: R8 the block's first row of a, DI b, R14 the aRow byte
// stride, R9/R10 the aK/ldb byte strides; per strip CX its byte offset
// and BX the last vector's byte offset within it; per k R11 the
// countdown, R12 the first row's a element and R13 the b row strip, with
// AX/SI/DX the skip step's scratch; Y15 the broadcast a element,
// Y10..Y14 the products, Y0..Y9 the accumulators (five per row). The
// block's init and out rows, the byte strides between them and the strip
// bookkeeping live in the frame.

// What a skipped term multiplies instead of its operands: -0 times a b
// row strip of ones (up to five vectors).
DATA skipterm<>+0(SB)/8, $0x8000000000000000
DATA skipterm<>+8(SB)/8, $1.0
DATA skipterm<>+16(SB)/8, $1.0
DATA skipterm<>+24(SB)/8, $1.0
DATA skipterm<>+32(SB)/8, $1.0
DATA skipterm<>+40(SB)/8, $1.0
DATA skipterm<>+48(SB)/8, $1.0
DATA skipterm<>+56(SB)/8, $1.0
DATA skipterm<>+64(SB)/8, $1.0
DATA skipterm<>+72(SB)/8, $1.0
DATA skipterm<>+80(SB)/8, $1.0
DATA skipterm<>+88(SB)/8, $1.0
DATA skipterm<>+96(SB)/8, $1.0
DATA skipterm<>+104(SB)/8, $1.0
DATA skipterm<>+112(SB)/8, $1.0
DATA skipterm<>+120(SB)/8, $1.0
DATA skipterm<>+128(SB)/8, $1.0
DATA skipterm<>+136(SB)/8, $1.0
DATA skipterm<>+144(SB)/8, $1.0
DATA skipterm<>+152(SB)/8, $1.0
DATA skipterm<>+160(SB)/8, $1.0
GLOBL skipterm<>(SB), RODATA|NOPTR, $168

// One row's n vectors: load from or store to (AX), zero, and the k
// step's multiply-adds against the b row strip at p. Every macro takes
// five accumulators and uses the first n.
#define PLD1(a, b, c, d, e) VMOVUPD (AX)(BX*1), a
#define PLD2(a, b, c, d, e) VMOVUPD (AX), a; VMOVUPD (AX)(BX*1), b
#define PLD3(a, b, c, d, e) VMOVUPD (AX), a; VMOVUPD 32(AX), b; VMOVUPD (AX)(BX*1), c
#define PLD4(a, b, c, d, e) VMOVUPD (AX), a; VMOVUPD 32(AX), b; VMOVUPD 64(AX), c; VMOVUPD (AX)(BX*1), d
#define PLD5(a, b, c, d, e) VMOVUPD (AX), a; VMOVUPD 32(AX), b; VMOVUPD 64(AX), c; VMOVUPD 96(AX), d; VMOVUPD (AX)(BX*1), e
#define PST1(a, b, c, d, e) VMOVUPD a, (AX)(BX*1)
#define PST2(a, b, c, d, e) VMOVUPD a, (AX); VMOVUPD b, (AX)(BX*1)
#define PST3(a, b, c, d, e) VMOVUPD a, (AX); VMOVUPD b, 32(AX); VMOVUPD c, (AX)(BX*1)
#define PST4(a, b, c, d, e) VMOVUPD a, (AX); VMOVUPD b, 32(AX); VMOVUPD c, 64(AX); VMOVUPD d, (AX)(BX*1)
#define PST5(a, b, c, d, e) VMOVUPD a, (AX); VMOVUPD b, 32(AX); VMOVUPD c, 64(AX); VMOVUPD d, 96(AX); VMOVUPD e, (AX)(BX*1)
#define PZR1(a, b, c, d, e) VXORPD a, a, a
#define PZR2(a, b, c, d, e) VXORPD a, a, a; VXORPD b, b, b
#define PZR3(a, b, c, d, e) VXORPD a, a, a; VXORPD b, b, b; VXORPD c, c, c
#define PZR4(a, b, c, d, e) VXORPD a, a, a; VXORPD b, b, b; VXORPD c, c, c; VXORPD d, d, d
#define PZR5(a, b, c, d, e) VXORPD a, a, a; VXORPD b, b, b; VXORPD c, c, c; VXORPD d, d, d; VXORPD e, e, e
#define PMA1(p, a, b, c, d, e) \
	VMULPD (p)(BX*1), Y15, Y14; \
	VADDPD Y14, a, a
#define PMA2(p, a, b, c, d, e) \
	VMULPD (p), Y15, Y13; VMULPD (p)(BX*1), Y15, Y14; \
	VADDPD Y13, a, a; VADDPD Y14, b, b
#define PMA3(p, a, b, c, d, e) \
	VMULPD (p), Y15, Y12; VMULPD 32(p), Y15, Y13; VMULPD (p)(BX*1), Y15, Y14; \
	VADDPD Y12, a, a; VADDPD Y13, b, b; VADDPD Y14, c, c
#define PMA4(p, a, b, c, d, e) \
	VMULPD (p), Y15, Y11; VMULPD 32(p), Y15, Y12; VMULPD 64(p), Y15, Y13; VMULPD (p)(BX*1), Y15, Y14; \
	VADDPD Y11, a, a; VADDPD Y12, b, b; VADDPD Y13, c, c; VADDPD Y14, d, d
#define PMA5(p, a, b, c, d, e) \
	VMULPD (p), Y15, Y10; VMULPD 32(p), Y15, Y11; VMULPD 64(p), Y15, Y12; VMULPD 96(p), Y15, Y13; VMULPD (p)(BX*1), Y15, Y14; \
	VADDPD Y10, a, a; VADDPD Y11, b, b; VADDPD Y12, c, c; VADDPD Y13, d, d; VADDPD Y14, e, e

// func productAVX(rows, inner, width int, a []float64, aRow, aK int, b []float64, ldb int, init []float64, ldi int, out []float64, ldo int, skip bool)
TEXT ·productAVX(SB), NOSPLIT, $72-161
// (The macros below are defined inside the function so vet checks their
// frame references here.)

// One row's k step: broadcast its a element and run the multiply-adds
// MA, one of PMA1..5, against the b row strip. With skip set, an element
// of +-0 and the strip are first swapped for skipterm's -0 and ones —
// two conditional moves on the element's integer bits, so NaN never
// skips.
#define PKPLAIN(aelem, MA, a, b, c, d, e) \
	VBROADCASTSD aelem, Y15; \
	MA(R13, a, b, c, d, e)
#define PKSKIP(aelem, MA, a, b, c, d, e) \
	LEAQ aelem, AX; \
	MOVQ R13, SI; \
	MOVQ (AX), DX; \
	ADDQ DX, DX; \
	CMOVQEQ skipa-48(SP), AX; \
	CMOVQEQ skipb-56(SP), SI; \
	VBROADCASTSD (AX), Y15; \
	MA(SI, a, b, c, d, e)

// A block's k loop: its head (straight to the stores when inner is 0)
// and its tail.
#define PKLOOP(loop, store) \
	MOVQ inner+8(FP), R11; \
	TESTQ R11, R11; \
	JZ   store; \
	MOVQ R8, R12; \
	LEAQ (DI)(CX*1), R13; \
loop:
#define PKNEXT(loop) \
	ADDQ R9, R12; \
	ADDQ R10, R13; \
	DECQ R11; \
	JNZ  loop

// One block of 1 or 2 rows over one strip: load (or zero) the
// accumulators, run the k loop, store. KROW is PKPLAIN or PKSKIP, and
// LD, ZR, MA, ST the row macros of the strip's vector count.
#define PBLOCK1(zero, run, loop, store, KROW, LD, ZR, MA, ST) \
	MOVQ initp-64(SP), AX; \
	TESTQ AX, AX; \
	JZ   zero; \
	ADDQ CX, AX; \
	LD(Y0, Y1, Y2, Y3, Y4); \
	JMP  run; \
zero: \
	ZR(Y0, Y1, Y2, Y3, Y4); \
run: \
	PKLOOP(loop, store); \
	KROW((R12), MA, Y0, Y1, Y2, Y3, Y4); \
	PKNEXT(loop); \
store: \
	MOVQ outp-72(SP), AX; \
	ADDQ CX, AX; \
	ST(Y0, Y1, Y2, Y3, Y4); \
	MOVQ $1, AX; \
	JMP  pdone

#define PBLOCK2(zero, run, loop, store, KROW, LD, ZR, MA, ST) \
	MOVQ initp-64(SP), AX; \
	TESTQ AX, AX; \
	JZ   zero; \
	ADDQ CX, AX; \
	LD(Y0, Y1, Y2, Y3, Y4); \
	ADDQ ldib-24(SP), AX; \
	LD(Y5, Y6, Y7, Y8, Y9); \
	JMP  run; \
zero: \
	ZR(Y0, Y1, Y2, Y3, Y4); \
	ZR(Y5, Y6, Y7, Y8, Y9); \
run: \
	PKLOOP(loop, store); \
	KROW((R12), MA, Y0, Y1, Y2, Y3, Y4); \
	KROW((R12)(R14*1), MA, Y5, Y6, Y7, Y8, Y9); \
	PKNEXT(loop); \
store: \
	MOVQ outp-72(SP), AX; \
	ADDQ CX, AX; \
	ST(Y0, Y1, Y2, Y3, Y4); \
	ADDQ ldob-32(SP), AX; \
	ST(Y5, Y6, Y7, Y8, Y9); \
	MOVQ $2, AX; \
	JMP  pdone

	MOVQ aRow+48(FP), R14
	SHLQ $3, R14
	MOVQ aK+56(FP), R9
	SHLQ $3, R9
	MOVQ b_base+64(FP), DI
	MOVQ ldb+88(FP), R10
	SHLQ $3, R10
	MOVQ ldi+120(FP), AX
	SHLQ $3, AX
	MOVQ AX, ldib-24(SP)
	MOVQ ldo+152(FP), AX
	SHLQ $3, AX
	MOVQ AX, ldob-32(SP)
	LEAQ skipterm<>(SB), AX
	MOVQ AX, skipa-48(SP)
	ADDQ $8, AX
	MOVQ AX, skipb-56(SP)

	// With skip set and a one contiguous rows×inner block (as stored or
	// transposed), look for a zero first: where there is none — any
	// input that is not a ReLU's output — there is nothing to skip, and
	// the plain blocks compute the same sums without examining a again.
	CMPB skip+160(FP), $0
	JEQ  pscandone
	MOVQ rows+0(FP), AX
	MOVQ inner+8(FP), CX
	MOVQ aRow+48(FP), DX
	MOVQ aK+56(FP), BX
	CMPQ BX, $1
	JNE  pscant
	CMPQ DX, CX
	JEQ  pscan
pscant:
	CMPQ DX, $1
	JNE  pscandone
	CMPQ BX, AX
	JNE  pscandone
pscan:
	IMULQ AX, CX            // elements
	CMPQ CX, $4
	JLT  pscandone
	MOVQ a_base+24(FP), SI
	LEAQ -32(SI)(CX*8), DX  // the last vector, overlapping its neighbour
	VXORPD Y0, Y0, Y0
	VCMPPD $0, (DX), Y0, Y1
pscanloop:
	VCMPPD $0, (SI), Y0, Y2
	VORPD Y2, Y1, Y1
	ADDQ $32, SI
	CMPQ SI, DX
	JLT  pscanloop
	VMOVMSKPD Y1, AX
	TESTQ AX, AX
	JNZ  pscandone
	MOVB $0, skip+160(FP)
pscandone:

	XORQ CX, CX
	MOVQ width+16(FP), AX
pstrip:
	CMPQ AX, $20
	JLT  plast
	SUBQ $16, AX
	MOVQ AX, left-8(SP)
	MOVQ $96, BX
	MOVQ $4, AX
	JMP  prows
plast:
	MOVQ $0, left-8(SP)
	LEAQ -32(AX*8), BX
	ADDQ $3, AX
	SHRQ $2, AX
prows:
	MOVQ AX, nvec-40(SP)
	MOVQ rows+0(FP), AX
	MOVQ AX, rowsleft-16(SP)
	MOVQ a_base+24(FP), R8
	MOVQ init_base+96(FP), AX
	MOVQ AX, initp-64(SP)
	MOVQ out_base+128(FP), AX
	MOVQ AX, outp-72(SP)

// Pick the block: R11 vectors in the strip, AX rows left.
pblock:
	MOVQ nvec-40(SP), R11
	MOVQ rowsleft-16(SP), AX
	CMPB skip+160(FP), $0
	JNE  sblock
	CMPQ AX, $2
	JLT  pblock1
	CMPQ R11, $2
	JLT  p21
	JEQ  p22
	CMPQ R11, $4
	JLT  p23
	JEQ  p24
	PBLOCK2(p25z, p25r, p25l, p25s, PKPLAIN, PLD5, PZR5, PMA5, PST5)
p24:
	PBLOCK2(p24z, p24r, p24l, p24s, PKPLAIN, PLD4, PZR4, PMA4, PST4)
p23:
	PBLOCK2(p23z, p23r, p23l, p23s, PKPLAIN, PLD3, PZR3, PMA3, PST3)
p22:
	PBLOCK2(p22z, p22r, p22l, p22s, PKPLAIN, PLD2, PZR2, PMA2, PST2)
p21:
	PBLOCK2(p21z, p21r, p21l, p21s, PKPLAIN, PLD1, PZR1, PMA1, PST1)
pblock1:
	CMPQ R11, $2
	JLT  p11
	JEQ  p12
	CMPQ R11, $4
	JLT  p13
	JEQ  p14
	PBLOCK1(p15z, p15r, p15l, p15s, PKPLAIN, PLD5, PZR5, PMA5, PST5)
p14:
	PBLOCK1(p14z, p14r, p14l, p14s, PKPLAIN, PLD4, PZR4, PMA4, PST4)
p13:
	PBLOCK1(p13z, p13r, p13l, p13s, PKPLAIN, PLD3, PZR3, PMA3, PST3)
p12:
	PBLOCK1(p12z, p12r, p12l, p12s, PKPLAIN, PLD2, PZR2, PMA2, PST2)
p11:
	PBLOCK1(p11z, p11r, p11l, p11s, PKPLAIN, PLD1, PZR1, PMA1, PST1)

// The same blocks with skip set.
sblock:
	CMPQ AX, $2
	JLT  sblock1
	CMPQ R11, $2
	JLT  s21
	JEQ  s22
	CMPQ R11, $4
	JLT  s23
	JEQ  s24
	PBLOCK2(s25z, s25r, s25l, s25s, PKSKIP, PLD5, PZR5, PMA5, PST5)
s24:
	PBLOCK2(s24z, s24r, s24l, s24s, PKSKIP, PLD4, PZR4, PMA4, PST4)
s23:
	PBLOCK2(s23z, s23r, s23l, s23s, PKSKIP, PLD3, PZR3, PMA3, PST3)
s22:
	PBLOCK2(s22z, s22r, s22l, s22s, PKSKIP, PLD2, PZR2, PMA2, PST2)
s21:
	PBLOCK2(s21z, s21r, s21l, s21s, PKSKIP, PLD1, PZR1, PMA1, PST1)
sblock1:
	CMPQ R11, $2
	JLT  s11
	JEQ  s12
	CMPQ R11, $4
	JLT  s13
	JEQ  s14
	PBLOCK1(s15z, s15r, s15l, s15s, PKSKIP, PLD5, PZR5, PMA5, PST5)
s14:
	PBLOCK1(s14z, s14r, s14l, s14s, PKSKIP, PLD4, PZR4, PMA4, PST4)
s13:
	PBLOCK1(s13z, s13r, s13l, s13s, PKSKIP, PLD3, PZR3, PMA3, PST3)
s12:
	PBLOCK1(s12z, s12r, s12l, s12s, PKSKIP, PLD2, PZR2, PMA2, PST2)
s11:
	PBLOCK1(s11z, s11r, s11l, s11s, PKSKIP, PLD1, PZR1, PMA1, PST1)

// Step a/init/out past the block's AX rows (a nil init stays nil), then
// take the next block or the next strip.
pdone:
	MOVQ R14, DX
	IMULQ AX, DX
	ADDQ DX, R8
	MOVQ ldob-32(SP), DX
	IMULQ AX, DX
	ADDQ DX, outp-72(SP)
	MOVQ ldib-24(SP), DX
	IMULQ AX, DX
	ADDQ initp-64(SP), DX
	CMPQ initp-64(SP), $0
	JEQ  pnilinit
	MOVQ DX, initp-64(SP)
pnilinit:
	SUBQ AX, rowsleft-16(SP)
	JNZ  pblock
	ADDQ $128, CX
	MOVQ left-8(SP), AX
	TESTQ AX, AX
	JNZ  pstrip
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
