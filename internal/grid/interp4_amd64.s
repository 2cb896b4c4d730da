#include "go_asm.h"
#include "textflag.h"

// Interp3 at four cells, one lane per float32 element of an XMM
// register. Lane l's stencil origin is in R8..R11, its fractions are
// element l of X8 (fx), X9 (fy) and X10 (fz). Every lerp is Interp3's
// lo + f*(hi-lo) as SUBPS, MULPS, ADDPS, each rounded to float32 like
// the scalar SUBSS, MULSS, ADDSS, and there is no FMA.

// LERP leaves lo + f*(hi-lo) in hi.
#define LERP(lo, hi, f) \
	SUBPS lo, hi; \
	MULPS f, hi; \
	ADDPS lo, hi

// PAIRS loads the (i, i+1) corner pair of each lane from the array at
// p with one 8-byte load per lane, transposes the pairs into the
// lanes' i corners (lo) and i+1 corners (hi), and leaves the x lerp
// between them in hi.
#define PAIRS(p, lo, hi) \
	MOVSD    (p)(R8*4), X0; \
	MOVSD    (p)(R9*4), X1; \
	MOVSD    (p)(R10*4), X2; \
	MOVSD    (p)(R11*4), X3; \
	UNPCKLPS X1, X0; \
	UNPCKLPS X3, X2; \
	MOVAPS   X0, lo; \
	MOVLHPS  X2, lo; \
	MOVAPS   X2, hi; \
	MOVHLPS  X0, hi; \
	LERP(lo, hi, X8)

// TRILERP interpolates the array whose base pointer is in AX and
// stores the four lanes' values at dst. R12 is a row (NI floats) in
// bytes, R13 a slab (NI*NJ floats).
#define TRILERP(dst) \
	LEAQ   (AX)(R12*1), BX; \
	LEAQ   (AX)(R13*1), CX; \
	LEAQ   (CX)(R12*1), DX; \
	PAIRS(AX, X4, X5); \
	PAIRS(BX, X4, X6); \
	PAIRS(CX, X4, X7); \
	PAIRS(DX, X4, X11); \
	LERP(X5, X6, X9); \
	LERP(X7, X11, X9); \
	LERP(X6, X11, X10); \
	MOVUPS X11, dst

// func interp3x4(u, v, w []float32, c *Cells4, out *[3][4]float32)
TEXT ·interp3x4(SB), NOSPLIT, $0-88
	MOVQ   c+72(FP), SI
	MOVQ   out+80(FP), DI
	MOVQ   Cells4_base+0(SI), R8
	MOVQ   Cells4_base+8(SI), R9
	MOVQ   Cells4_base+16(SI), R10
	MOVQ   Cells4_base+24(SI), R11
	MOVUPS Cells4_fx(SI), X8
	MOVUPS Cells4_fy(SI), X9
	MOVUPS Cells4_fz(SI), X10
	MOVQ   Cells4_ni(SI), R12
	SHLQ   $2, R12
	MOVQ   Cells4_nj(SI), R13
	IMULQ  R12, R13
	MOVQ   u_base+0(FP), AX
	TRILERP(0(DI))
	MOVQ   v_base+24(FP), AX
	TRILERP(16(DI))
	MOVQ   w_base+48(FP), AX
	TRILERP(32(DI))
	RET
