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

// Layer-norm kernels. The per-row sums run with one lane per row, four
// rows at a time: lane r gathers element j of row r (the rows being n
// elements apart) and keeps its own sums in j order, so each row's
// reduction is the scalar chain; the divisions and square roots per row
// are correctly rounded vector ones. rows >= 4:
// the last group of four starts at rows-4, recomputing the rows it shares
// with the group before to the same values. The element-wise steps walk
// each row in vectors, the last placed at n-4 (n >= 4) overlapping its
// neighbour: an output element is recomputed from the same inputs, and
// no output aliases an input.

// Element idx (a byte offset) of the rows DI, R10, R11, R12 → dst's
// lanes 0..3: broadcast loads and blends, which leave the shuffle port
// free. Uses Y5.
#define LNGATHER(idx, dst) \
	VBROADCASTSD (DI)(idx*1), dst; \
	VBROADCASTSD (R10)(idx*1), Y5; \
	VBLENDPD     $0x2, Y5, dst, dst; \
	VBROADCASTSD (R11)(idx*1), Y5; \
	VBLENDPD     $0x4, Y5, dst, dst; \
	VBROADCASTSD (R12)(idx*1), Y5; \
	VBLENDPD     $0x8, Y5, dst, dst

// The rows of the group starting at row R9 of SI (row stride R8 bytes):
// DI, R10, R11, R12.
#define LNGROUP \
	MOVQ  R9, DI; \
	IMULQ R8, DI; \
	ADDQ  SI, DI; \
	LEAQ  (DI)(R8*1), R10; \
	LEAQ  (R10)(R8*1), R11; \
	LEAQ  (R11)(R8*1), R12

// The next group's first row in R9 (R13 rows), or out when every row is
// done; uses DX.
#define LNNEXT(loop, out) \
	ADDQ    $4, R9; \
	CMPQ    R9, R13; \
	JGE     out; \
	LEAQ    -4(R13), DX; \
	CMPQ    R9, DX; \
	CMOVQGT DX, R9; \
	JMP     loop

// mean[r] = Σ_j x[r][j] / n and inv[r] = 1/sqrt(Σ_j (x[r][j]-mean[r])² / n
// + eps), both sums in j order, for the rows (>= 4) n-element rows of x.
// fn is n as a float64.
// func normMomentsAVX(x []float64, rows, n int, fn, eps float64, mean, inv []float64)
TEXT ·normMomentsAVX(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), SI
	MOVQ rows+24(FP), R13
	MOVQ n+32(FP), R8
	SHLQ $3, R8
	VBROADCASTSD fn+40(FP), Y14
	VBROADCASTSD eps+48(FP), Y13
	VBROADCASTSD expc<>+352(SB), Y12 // 1
	MOVQ mean_base+56(FP), R14
	MOVQ inv_base+80(FP), R15
	XORQ R9, R9
lnmgroup:
	LNGROUP
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
lnmsum:
	LNGATHER(AX, Y1)
	VADDPD Y1, Y0, Y0
	ADDQ   $8, AX
	CMPQ   AX, R8
	JL     lnmsum
	VDIVPD Y14, Y0, Y0              // mean
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
lnmss:
	LNGATHER(AX, Y1)
	VSUBPD Y0, Y1, Y1               // x - mean
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y3, Y3
	ADDQ   $8, AX
	CMPQ   AX, R8
	JL     lnmss
	VDIVPD  Y14, Y3, Y3             // / n
	VADDPD  Y13, Y3, Y3             // + eps
	VSQRTPD Y3, Y3
	VDIVPD  Y3, Y12, Y3             // 1 / sqrt
	VMOVUPD Y0, (R14)(R9*8)
	VMOVUPD Y3, (R15)(R9*8)
	LNNEXT(lnmgroup, lnmdone)
lnmdone:
	VZEROUPPER
	RET

// sumDx[r] = Σ_j g[r][j]·gain[j] and sumDxXh[r] = Σ_j (g[r][j]·gain[j])·xh[r][j],
// in j order, for the rows (>= 4) n-element rows of g and xh.
// func normGradSumsAVX(g, xh, gain []float64, rows, n int, sumDx, sumDxXh []float64)
TEXT ·normGradSumsAVX(SB), NOSPLIT, $0-136
	MOVQ g_base+0(FP), SI
	MOVQ xh_base+24(FP), BX
	SUBQ SI, BX                     // xh's byte offset from g
	MOVQ gain_base+48(FP), CX
	MOVQ rows+72(FP), R13
	MOVQ n+80(FP), R8
	SHLQ $3, R8
	MOVQ sumDx_base+88(FP), R14
	MOVQ sumDxXh_base+112(FP), R15
	XORQ R9, R9
lngsgroup:
	LNGROUP
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   AX, AX
lngsj:
	LNGATHER(AX, Y2)
	VBROADCASTSD (CX)(AX*1), Y3
	VMULPD Y3, Y2, Y2               // dh = g * gain
	VADDPD Y2, Y0, Y0               // sumDx += dh
	LEAQ   (BX)(AX*1), DX
	LNGATHER(DX, Y4)
	VMULPD Y4, Y2, Y4               // dh * xh
	VADDPD Y4, Y1, Y1               // sumDxXh += dh*xh
	ADDQ   $8, AX
	CMPQ   AX, R8
	JL     lngsj
	VMOVUPD Y0, (R14)(R9*8)
	VMOVUPD Y1, (R15)(R9*8)
	LNNEXT(lngsgroup, lngsdone)
lngsdone:
	VZEROUPPER
	RET

// One row's vectors for the element-wise steps: AX their byte offset, DX
// the last one's.
#define LNCOL(loop) \
	XORQ AX, AX; \
loop:
#define LNCOLNEXT(loop, done) \
	CMPQ    AX, DX; \
	JAE     done; \
	ADDQ    $32, AX; \
	CMPQ    AX, DX; \
	CMOVQGT DX, AX; \
	JMP     loop; \
done:

// xhat[r][j] = (x[r][j]-mean[r])*inv[r] and out[r][j] = xhat[r][j]*gain[j]
// + bias[j], the scalar loop's operations in its order, for rows >= 1
// rows of n >= 4 elements. xhat may be out: its store comes first.
// func normRowsAVX(x, gain, bias, out, xhat, mean, inv []float64)
TEXT ·normRowsAVX(SB), NOSPLIT, $0-168
	MOVQ x_base+0(FP), SI
	MOVQ gain_base+24(FP), BX
	MOVQ gain_len+32(FP), R8
	LEAQ -32(R8*8), DX
	SHLQ $3, R8
	MOVQ bias_base+48(FP), CX
	MOVQ out_base+72(FP), R10
	MOVQ xhat_base+96(FP), R11
	MOVQ mean_base+120(FP), R14
	MOVQ mean_len+128(FP), R13
	MOVQ inv_base+144(FP), R15
	XORQ R9, R9
lnrrow:
	VBROADCASTSD (R14)(R9*8), Y8
	VBROADCASTSD (R15)(R9*8), Y9
	LNCOL(lnrcol)
	VMOVUPD (SI)(AX*1), Y0
	VSUBPD  Y8, Y0, Y0              // x - mean
	VMULPD  Y9, Y0, Y0              // * inv
	VMOVUPD Y0, (R11)(AX*1)
	VMULPD  (BX)(AX*1), Y0, Y0      // * gain
	VADDPD  (CX)(AX*1), Y0, Y0      // + bias
	VMOVUPD Y0, (R10)(AX*1)
	LNCOLNEXT(lnrcol, lnrcoldone)
	ADDQ R8, SI
	ADDQ R8, R10
	ADDQ R8, R11
	INCQ R9
	CMPQ R9, R13
	JL   lnrrow
	VZEROUPPER
	RET

// out[r][j] = (g[r][j]*gain[j] - sumDx[r]/n - xh[r][j]*sumDxXh[r]/n) *
// inv[r], the scalar expression's operations in its order, for rows >= 1
// rows of n >= 4 elements. fn is n as a float64.
// func normGradRowsAVX(g, gain, xh, out, sumDx, sumDxXh, inv []float64, fn float64)
TEXT ·normGradRowsAVX(SB), NOSPLIT, $0-176
	MOVQ g_base+0(FP), SI
	MOVQ gain_base+24(FP), BX
	MOVQ gain_len+32(FP), R8
	LEAQ -32(R8*8), DX
	SHLQ $3, R8
	MOVQ xh_base+48(FP), CX
	MOVQ out_base+72(FP), R10
	MOVQ sumDx_base+96(FP), R14
	MOVQ sumDx_len+104(FP), R13
	MOVQ sumDxXh_base+120(FP), R15
	MOVQ inv_base+144(FP), R11
	VBROADCASTSD fn+168(FP), Y10
	XORQ R9, R9
lngrow:
	VMOVSD       (R14)(R9*8), X8
	VDIVSD       X10, X8, X8        // mean = sumDx / n
	VMOVDDUP     X8, X8
	VINSERTF128  $1, X8, Y8, Y8
	VBROADCASTSD (R15)(R9*8), Y9
	VBROADCASTSD (R11)(R9*8), Y11
	LNCOL(lngcol)
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (BX)(AX*1), Y0, Y0      // g * gain
	VSUBPD  Y8, Y0, Y0              // - mean
	VMOVUPD (CX)(AX*1), Y1
	VMULPD  Y9, Y1, Y1              // xh * sumDxXh
	VDIVPD  Y10, Y1, Y1             // / n
	VSUBPD  Y1, Y0, Y0
	VMULPD  Y11, Y0, Y0             // * inv
	VMOVUPD Y0, (R10)(AX*1)
	LNCOLNEXT(lngcol, lngcoldone)
	ADDQ R8, SI
	ADDQ R8, CX
	ADDQ R8, R10
	INCQ R9
	CMPQ R9, R13
	JL   lngrow
	VZEROUPPER
	RET

// A layer norm's parameter gradients over rows (>= 1) rows of g and xh
// with leading dimension ld: gainG[j] += g[i][j]*xh[i][j] and biasG[j] +=
// g[i][j], row after row, for the len(gainG) (a positive multiple of 4)
// leading columns. Lane j carries column j's two sums in registers
// across the rows, so each accumulates in the scalar loop's row order.
// func normParamGradAVX(g, xh, gainG, biasG []float64, rows, ld int)
TEXT ·normParamGradAVX(SB), NOSPLIT, $0-112
	MOVQ g_base+0(FP), SI
	MOVQ xh_base+24(FP), R8
	MOVQ gainG_base+48(FP), DI
	MOVQ gainG_len+56(FP), CX
	SHLQ $3, CX
	MOVQ biasG_base+72(FP), DX
	MOVQ rows+96(FP), R9
	MOVQ ld+104(FP), R10
	SHLQ $3, R10
	XORQ AX, AX
npstrip:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD (DX)(AX*1), Y1
	LEAQ    (SI)(AX*1), R11
	LEAQ    (R8)(AX*1), R12
	MOVQ    R9, R13
nprow:
	VMOVUPD (R11), Y2
	VMULPD  (R12), Y2, Y3         // g * xh
	VADDPD  Y3, Y0, Y0            // gainG += g*xh
	VADDPD  Y2, Y1, Y1            // biasG += g
	ADDQ    R10, R11
	ADDQ    R10, R12
	DECQ    R13
	JNZ     nprow
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JL      npstrip
	VZEROUPPER
	RET

// math.Exp's amd64 sequence (src/math/exp_amd64.s), four lanes at a
// time: the same constants, the same reduction x − k·ln2 in two parts
// (k = x·log2e rounded to nearest, as CVTSD2SL rounds), the same Taylor
// chain on r/16, the same four squarings and the same ldexp by exponent
// bits. Each lane runs the operation sequence math.Exp runs on this
// host: EXPMULSUB is its separate multiply/subtract branch, EXPFMA its
// fused branch (math takes it when the CPU has AVX and FMA). A lane is
// only on that path when k lies in [-1022, 1023]: EXPSPECIAL marks the
// rest — NaN and ±Inf (k converts to the integer indefinite), overflow
// (k ≥ 1024 for every x above math's 709.78 bound) and the
// denormal/underflow exponents — for the caller to hand to math.Exp.
//
// Constants, four copies each so they serve as 256-bit memory operands.
#define EXPC4(off, bits) \
	DATA expc<>+(off)(SB)/8, bits; \
	DATA expc<>+(off+8)(SB)/8, bits; \
	DATA expc<>+(off+16)(SB)/8, bits; \
	DATA expc<>+(off+24)(SB)/8, bits
EXPC4(0, $1.4426950408889634073599246810018920)              // log2(e)
EXPC4(32, $0.69314718055966295651160180568695068359375)      // ln2, upper part
EXPC4(64, $0.28235290563031577122588448175013436025525412068e-12) // ln2, lower part
EXPC4(96, $0.0625)
EXPC4(128, $2.4801587301587301587e-5)
EXPC4(160, $1.9841269841269841270e-4)
EXPC4(192, $1.3888888888888888889e-3)
EXPC4(224, $8.3333333333333333333e-3)
EXPC4(256, $4.1666666666666666667e-2)
EXPC4(288, $1.6666666666666666667e-1)
EXPC4(320, $0.5)
EXPC4(352, $1.0)
EXPC4(384, $2.0)
EXPC4(416, $0xc08ff00000000000)                              // -1022
EXPC4(448, $0x408ff80000000000)                              // 1023
DATA expc<>+480(SB)/4, $1023                                 // the exponent bias, as int32
DATA expc<>+484(SB)/4, $1023
DATA expc<>+488(SB)/4, $1023
DATA expc<>+492(SB)/4, $1023
DATA expc<>+496(SB)/8, $0xfff0000000000000                   // -Inf
DATA expc<>+504(SB)/8, $0xc086200000000000                   // -708
GLOBL expc<>(SB), RODATA|NOPTR, $512

// x in Y0 → Y1 = k as a double, X2 = k as int32.
#define EXPK \
	VMULPD     expc<>+0(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// dst = all ones in the lanes whose k is outside [-1022, 1023]. Uses Y5.
#define EXPSPECIAL(dst) \
	VCMPPD $0x01, expc<>+416(SB), Y1, dst; \
	VCMPPD $0x0e, expc<>+448(SB), Y1, Y5; \
	VORPD  Y5, dst, dst

// The reduction and the Taylor chain: Y0 = x, Y1 = k → Y0 = e^r with
// x = k·ln2 + r. Uses Y3.
#define EXPMULSUB \
	VMULPD expc<>+32(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expc<>+64(SB), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD expc<>+96(SB), Y0, Y0; \
	VMULPD expc<>+128(SB), Y0, Y3; \
	VADDPD expc<>+160(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+192(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+224(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+256(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+288(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+320(SB), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD expc<>+352(SB), Y3, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD expc<>+384(SB), Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD expc<>+384(SB), Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD expc<>+384(SB), Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD expc<>+384(SB), Y0, Y3; \
	VMULPD Y3, Y0, Y0; \
	VADDPD expc<>+352(SB), Y0, Y0

#define EXPFMA \
	VFNMADD231PD expc<>+32(SB), Y1, Y0; \
	VFNMADD231PD expc<>+64(SB), Y1, Y0; \
	VMULPD       expc<>+96(SB), Y0, Y0; \
	VMOVUPD      expc<>+128(SB), Y3; \
	VFMADD213PD  expc<>+160(SB), Y0, Y3; \
	VFMADD213PD  expc<>+192(SB), Y0, Y3; \
	VFMADD213PD  expc<>+224(SB), Y0, Y3; \
	VFMADD213PD  expc<>+256(SB), Y0, Y3; \
	VFMADD213PD  expc<>+288(SB), Y0, Y3; \
	VFMADD213PD  expc<>+320(SB), Y0, Y3; \
	VFMADD213PD  expc<>+352(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expc<>+384(SB), Y0, Y3; \
	VFMADD213PD  expc<>+352(SB), Y3, Y0

// Y0 *= 2^k, from X2 = k: the exponent field (k+1023)<<52 built per
// 64-bit lane with 128-bit integer ops (AVX has no 256-bit ones). Uses Y1.
#define EXPSCALE \
	VPADDD      expc<>+480(SB), X2, X2; \
	VPMOVZXDQ   X2, X1; \
	VPSHUFD     $0xee, X2, X2; \
	VPMOVZXDQ   X2, X2; \
	VPSLLQ      $52, X1, X1; \
	VPSLLQ      $52, X2, X2; \
	VINSERTF128 $1, X2, Y1, Y1; \
	VMULPD      Y1, Y0, Y0

// out = exp(x) per lane, computed through the fused branch when fma is
// set; the result is the lanes EXPSPECIAL marks, as bits 0..3, whose out
// is not math.Exp's.
// func expAVX(x, out *[4]float64, fma bool) int
TEXT ·expAVX(SB), NOSPLIT, $0-32
	MOVQ    x+0(FP), SI
	MOVQ    out+8(FP), DI
	VMOVUPD (SI), Y0
	EXPK
	EXPSPECIAL(Y4)
	VMOVMSKPD Y4, AX
	MOVQ    AX, ret+24(FP)
	CMPB    fma+16(FP), $0
	JNE     expfused
	EXPMULSUB
	JMP     expscale
expfused:
	EXPFMA
expscale:
	EXPSCALE
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET


// Row softmax over rows (1..8) rows of n >= 4 elements in x, in place,
// each row in the scalar loop's order:
//
//	s[j] = x[j]·scale; m = max_j s[j]; e[j] = exp(s[j]-m);
//	sum = Σ_j e[j] in j order; out[j] = e[j]·(1/sum)
//
// The sum is a scalar chain in j order. The max is taken lane-wise and
// then across the lanes (VMAXPD with the new value first skips a NaN, as
// `if s > m` does): a max rounds nothing, so the order can only change
// which zero a row whose max is ±0 keeps, and that changes no s[j]-m's
// exp (exp(±0) = 1). The element-wise steps run four lanes at a time,
// the last vector of a row placed at n-4 and loaded before the step
// stores anything, so an overlapped element is computed once from its
// input and stored twice. Each step is a pass over every row, so the exps
// of different rows — a long dependency chain each — overlap in the
// pipeline.
//
// Every exp must be on math.Exp's plain path (k in [-1022, 1023]). With
// no NaN among the s[j], s[j]-m lies in [min-m, 0] (a rounded subtraction
// is monotonic), and min-m >= -708 puts k in [-1021, 0]; an infinite s
// makes min-m NaN or -Inf. A row failing that bound stops the kernel
// before any exp: it returns false with every row scaled and nothing
// else written. The rows' maxima live in the frame.
//
// Registers: SI x, R11 the row count, R12 the row index, DI the row,
// CX the row length and DX its last vector's offset in bytes, AX the
// offset, R13 the maxima, BX the failed bound; Y15 scale, Y14 the row's
// max, Y8 the last vector's input, Y6 1/sum; while scaling Y7/Y4 the
// lane-wise min/max and Y5 the NaN lanes; the exp macros use Y0..Y3.

// One in-place step over the row at DI: OP maps the vectors in Y0 — the
// ones before the last, then the last from its input kept in Y8 — and
// each result is stored.
#define SMPASS(loop, last, OP) \
	VMOVUPD (DI)(DX*1), Y8; \
	XORQ    AX, AX; \
	TESTQ   DX, DX; \
	JZ      last; \
loop: \
	VMOVUPD (DI)(AX*1), Y0; \
	OP; \
	VMOVUPD Y0, (DI)(AX*1); \
	ADDQ    $32, AX; \
	CMPQ    AX, DX; \
	JB      loop; \
last: \
	VMOVAPD Y8, Y0; \
	OP; \
	VMOVUPD Y0, (DI)(DX*1)

// The row loop around a step: DI and R12 walk the rows.
#define SMROWS0 \
	MOVQ SI, DI; \
	XORQ R12, R12
#define SMROWNEXT(row) \
	ADDQ CX, DI; \
	INCQ R12; \
	CMPQ R12, R11; \
	JB   row

#define SMSCALE \
	VMULPD Y15, Y0, Y0; \
	VMAXPD Y4, Y0, Y4; \
	VMINPD Y7, Y0, Y7; \
	VCMPPD $0x03, Y0, Y0, Y1; \
	VORPD  Y1, Y5, Y5
#define SMEXPMULSUB VSUBPD Y14, Y0, Y0; EXPK; EXPMULSUB; EXPSCALE
#define SMEXPFMA VSUBPD Y14, Y0, Y0; EXPK; EXPFMA; EXPSCALE
#define SMNORM VMULPD Y6, Y0, Y0

// X4 = the max of Y4's lanes, X7 the min of Y7's; uses X1.
#define SMACROSS \
	VEXTRACTF128 $1, Y4, X1; \
	VMAXPD       X1, X4, X4; \
	VPERMILPD    $1, X4, X1; \
	VMAXSD       X1, X4, X4; \
	VEXTRACTF128 $1, Y7, X1; \
	VMINPD       X1, X7, X7; \
	VPERMILPD    $1, X7, X1; \
	VMINSD       X1, X7, X7

// func softmaxRowsAVX(x []float64, rows, n int, scale float64, fma bool) bool
TEXT ·softmaxRowsAVX(SB), NOSPLIT, $64-57
	MOVQ x_base+0(FP), SI
	MOVQ rows+24(FP), R11
	MOVQ n+32(FP), CX
	LEAQ -32(CX*8), DX
	SHLQ $3, CX
	VBROADCASTSD scale+40(FP), Y15
	LEAQ maxima-64(SP), R13
	XORQ BX, BX
	VXORPD Y5, Y5, Y5

	// Scale each row, take its max, and check its exps' bound.
	SMROWS0
smscalerow:
	VBROADCASTSD expc<>+496(SB), Y4 // -Inf
	VXORPD       Y7, Y7, Y7
	VSUBPD       Y4, Y7, Y7         // +Inf
	SMPASS(smsl, smsx, SMSCALE)
	SMACROSS
	VMOVSD   X4, (R13)(R12*8)
	VSUBSD   X4, X7, X7             // min - max
	VUCOMISD expc<>+504(SB), X7
	JCC      smbound                // min - max >= -708
	MOVQ     $1, BX
smbound:
	SMROWNEXT(smscalerow)
	VMOVMSKPD Y5, AX
	ORQ       AX, BX
	JNZ       smspecial

	// e = exp(s - max).
	SMROWS0
	CMPB fma+48(FP), $0
	JNE  smfusedrow
smmulrow:
	VBROADCASTSD (R13)(R12*8), Y14
	SMPASS(smml, smmx, SMEXPMULSUB)
	SMROWNEXT(smmulrow)
	JMP  smsumrows
smfusedrow:
	VBROADCASTSD (R13)(R12*8), Y14
	SMPASS(smfl, smfx, SMEXPFMA)
	SMROWNEXT(smfusedrow)

	// The sum in index order, then the multiply by its reciprocal.
smsumrows:
	SMROWS0
smsumrow:
	VXORPD X6, X6, X6
	XORQ   AX, AX
smsum:
	VADDSD (DI)(AX*1), X6, X6
	ADDQ   $8, AX
	CMPQ   AX, CX
	JB     smsum
	VMOVSD      expc<>+352(SB), X5
	VDIVSD      X6, X5, X6
	VMOVDDUP    X6, X6
	VINSERTF128 $1, X6, Y6, Y6
	SMPASS(smnl, smnx, SMNORM)
	SMROWNEXT(smsumrow)
	MOVB $1, ret+56(FP)
	VZEROUPPER
	RET

smspecial:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET

// Element-wise kernels over 4k elements (the Go wrappers take the
// tails). Each lane runs the scalar loop's operations on its element, so
// the results are bit-identical to it; the one reduction, sqErrGradAVX's
// sum, adds the lanes one by one in element order.

// dst[i] = a[i] + b[i].
// func addAVX(dst, a, b []float64)
TEXT ·addAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
addloop:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      addloop
	VZEROUPPER
	RET

// keep[i] = all ones where !(x[i] < 0), else 0 (VCMPPD's not-less-than
// is true for NaN, as the negated Go compare is); out[i] = x[i] & keep[i].
// keep_base may be nil: the words are then not stored.
// func reluAVX(out []float64, keep []uint64, x []float64)
TEXT ·reluAVX(SB), NOSPLIT, $0-72
	MOVQ   out_base+0(FP), DI
	MOVQ   out_len+8(FP), CX
	MOVQ   keep_base+24(FP), R8
	MOVQ   x_base+48(FP), SI
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	TESTQ  R8, R8
	JZ     relunokeep
reluloop:
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x05, Y7, Y0, Y1
	VANDPD  Y0, Y1, Y0
	VMOVUPD Y1, (R8)(AX*8)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      reluloop
	VZEROUPPER
	RET
relunokeep:
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x05, Y7, Y0, Y1
	VANDPD  Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      relunokeep
	VZEROUPPER
	RET

// out[i] = g[i] & keep[i].
// func gateAVX(out, g []float64, keep []uint64)
TEXT ·gateAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ keep_base+48(FP), R8
	XORQ AX, AX
gateloop:
	VMOVUPD (SI)(AX*8), Y0
	VANDPD  (R8)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      gateloop
	VZEROUPPER
	RET

// out[i] = (a[i]-b[i])·(a[i]-b[i]).
// func sqDiffAVX(out, a, b []float64)
TEXT ·sqDiffAVX(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX
sqdloop:
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  (DX)(AX*8), Y0, Y0
	VMULPD  Y0, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      sqdloop
	VZEROUPPER
	RET

// d = pred[i]-target[i]; grad[i] = 2·d/n; the result is the sum of d·d
// in element order.
// func sqErrGradAVX(grad, pred, target []float64, n float64) float64
TEXT ·sqErrGradAVX(SB), NOSPLIT, $0-88
	MOVQ grad_base+0(FP), DI
	MOVQ grad_len+8(FP), CX
	MOVQ pred_base+24(FP), SI
	MOVQ target_base+48(FP), DX
	VBROADCASTSD n+72(FP), Y7
	VXORPD X6, X6, X6
	VBROADCASTSD expc<>+384(SB), Y5 // 2
	XORQ AX, AX
sqeloop:
	VMOVUPD      (SI)(AX*8), Y0
	VSUBPD       (DX)(AX*8), Y0, Y0
	VMULPD       Y0, Y0, Y1
	VMULPD       Y5, Y0, Y2
	VDIVPD       Y7, Y2, Y2
	VMOVUPD      Y2, (DI)(AX*8)
	VADDSD       X1, X6, X6
	VPERMILPD    $1, X1, X2
	VADDSD       X2, X6, X6
	VEXTRACTF128 $1, Y1, X1
	VADDSD       X1, X6, X6
	VPERMILPD    $1, X1, X2
	VADDSD       X2, X6, X6
	ADDQ         $4, AX
	CMPQ         AX, CX
	JL           sqeloop
	VMOVSD       X6, ret+80(FP)
	VZEROUPPER
	RET

// out's rows are a's na elements then b's nb (na, nb >= 4): one row's
// part is copied in vectors, the last placed at its end and overlapping
// its neighbour.
// func concatAVX(out, a, b []float64, rows, na, nb int)
TEXT ·concatAVX(SB), NOSPLIT, $0-96
	MOVQ out_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ rows+72(FP), CX
	MOVQ na+80(FP), R8
	MOVQ nb+88(FP), R9
	LEAQ -32(R8*8), R10
	LEAQ -32(R9*8), R11
catrow:
	XORQ AX, AX
cata:
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R10
	JL      cata
	VMOVUPD (SI)(R10*1), Y0
	VMOVUPD Y0, (DI)(R10*1)
	LEAQ    (DI)(R8*8), DI
	LEAQ    (SI)(R8*8), SI
	XORQ    AX, AX
catb:
	VMOVUPD (DX)(AX*1), Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JL      catb
	VMOVUPD (DX)(R11*1), Y0
	VMOVUPD Y0, (DI)(R11*1)
	LEAQ    (DI)(R9*8), DI
	LEAQ    (DX)(R9*8), DX
	DECQ    CX
	JNZ     catrow
	VZEROUPPER
	RET
