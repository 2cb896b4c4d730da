#include "go_asm.h"
#include "textflag.h"

// transformVerts with a vertex's x, y, z and w as the four float32
// elements of one XMM register. Each element is rounded as the scalar
// code rounds it: one MULPS, ADDPS or DIVPS per scalar MULSS, ADDSS or
// DIVSS, no FMA, and each operation's operands in the order the
// compiled scalar code takes them. The order is the one thing that can
// tell the two apart: where both operands are NaN, x86 returns the
// first source's payload. Mat4.TransformPointW computes x, y and z as
//
//	((m1·Y + m0·X) + m2·Z) + m3    (the products matrix-first)
//
// and w as ((m12·X + m13·Y) + m14·Z) + m15, so element 3 takes both of
// its first two adds the other way round. The first is arranged in the
// columns, P = [m1 m5 m9 m12]·[Y Y Y X] plus Q = [m0 m4 m8 m13]·[X X X
// Y]; for the second, element 3 of the running sum and of the column-2
// products [m2·Z m6·Z m10·Z m14·Z] trade places before the add.
//
// Registers held across the loop:
//	X8  P's column [m1 m5 m9 m12]     X12 element 3 all ones (the swap mask)
//	X9  Q's column [m0 m4 m8 m13]     X13 [-1 1 1 1]
//	X10 [m2 m6 m10 m14]               X14 [0.5 0.5 0.5 0.5]
//	X11 [m3 m7 m11 m15]               X15 [vp.w vp.h 0 0]

// SWAP3 exchanges element 3 of a and b, through t.
#define SWAP3(a, b, t) \
	MOVAPS a, t; \
	XORPS  b, t; \
	ANDPS  X12, t; \
	XORPS  t, a; \
	XORPS  t, b

// func transformVertsArch(m *vmath.Mat4, vp viewport, pts []vmath.Vec3, out []vert)
TEXT ·transformVertsArch(SB), NOSPLIT, $0-64
	MOVQ m+0(FP), AX
	MOVQ pts_base+16(FP), SI
	MOVQ pts_len+24(FP), CX
	MOVQ out_base+40(FP), DI
	TESTQ CX, CX
	JZ   done

	// The row-major matrix's columns: a 4x4 transpose of its rows.
	MOVUPS   0(AX), X0
	MOVUPS   16(AX), X1
	MOVUPS   32(AX), X2
	MOVUPS   48(AX), X3
	MOVAPS   X0, X4
	UNPCKLPS X1, X4   // [m0 m4 m1 m5]
	UNPCKHPS X1, X0   // [m2 m6 m3 m7]
	MOVAPS   X2, X5
	UNPCKLPS X3, X5   // [m8 m12 m9 m13]
	UNPCKHPS X3, X2   // [m10 m14 m11 m15]
	MOVAPS   X4, X9
	MOVLHPS  X5, X9   // [m0 m4 m8 m12]
	MOVAPS   X5, X8
	MOVHLPS  X4, X8   // [m1 m5 m9 m13]
	MOVAPS   X0, X10
	MOVLHPS  X2, X10  // [m2 m6 m10 m14]
	MOVHLPS  X0, X2
	MOVAPS   X2, X11  // [m3 m7 m11 m15]
	PCMPEQL  X12, X12
	PSLLO    $12, X12
	SWAP3(X8, X9, X0)

	MOVL   $0x3f800000, AX // 1
	MOVQ   AX, X13
	PSHUFD $0, X13, X13
	MOVL   $0xbf800000, AX // -1
	MOVQ   AX, X0
	MOVSS  X0, X13
	MOVL   $0x3f000000, AX // 0.5
	MOVQ   AX, X14
	PSHUFD $0, X14, X14
	MOVSS  vp_w+8(FP), X15
	MOVSS  vp_h+12(FP), X0
	UNPCKLPS X0, X15

loop:
	// [x y z w] = ((P + Q) + col2·Z) + col3, a vmath.Vec3 being 12
	// bytes.
	MOVSD  0(SI), X0        // [X Y 0 0]
	MOVSS  8(SI), X1
	PSHUFD $0x15, X0, X2    // [Y Y Y X]
	PSHUFD $0x40, X0, X0    // [X X X Y]
	PSHUFD $0, X1, X1       // [Z Z Z Z]
	MOVAPS X8, X3
	MULPS  X2, X3
	MOVAPS X9, X4
	MULPS  X0, X4
	ADDPS  X4, X3           // [m1Y+m0X  m5Y+m4X  m9Y+m8X  m12X+m13Y]
	MOVAPS X10, X5
	MULPS  X1, X5
	SWAP3(X5, X3, X6)
	ADDPS  X3, X5
	ADDPS  X11, X5          // [x y z w]

	// divide: [x/w y/w z/w], then w itself over element 3.
	MOVAPS X5, X6
	SHUFPS $0xff, X6, X6
	DIVPS  X6, X5
	MOVUPS X5, vert_ndc(DI)
	MOVSS  X6, vert_w(DI)

	// onScreen: [sx sy] = ([x 1] - [-1 y]) · 0.5 · [vp.w vp.h]. x+1 is
	// x-(-1) to the bit; 1-y stays a subtraction, so a NaN y keeps its
	// sign.
	MOVAPS X13, X0
	MOVSS  X5, X0           // [x 1 1 1]
	MOVSS  X13, X5          // [-1 y z 1]
	SUBPS  X5, X0
	MULPS  X14, X0
	MULPS  X15, X0
	MOVSD  X0, vert_sx(DI)

	ADDQ $12, SI
	ADDQ $vert__size, DI
	DECQ CX
	JNZ  loop

done:
	RET
