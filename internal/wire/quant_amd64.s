#include "textflag.h"

// Codec v2's quantizer two coordinates at a time, one lane per float64
// element of an XMM register. A slice of points is a flat array of
// float32 coordinates and its records a flat array of uint16 values in
// the same order, so a loop step of two points is three lane pairs
// whose axes are (x, y), (z, x) and (y, z). Each lane evaluates the
// scalar axis.quant or axis.dequant with one packed operation per
// scalar one, rounded the same way, and there is no FMA.
//
// Registers held across either loop:
//	X8  lo (x, y)     X11 span (x, y)
//	X9  lo (z, x)     X12 span (z, x)
//	X10 lo (y, z)     X13 span (y, z)

// AXES loads the three lane pairs' lo and span from the frame.
#define AXES \
	MOVSD  x_lo+48(FP), X8; \
	MOVHPD y_lo+64(FP), X8; \
	MOVSD  z_lo+80(FP), X9; \
	MOVHPD x_lo+48(FP), X9; \
	MOVSD  y_lo+64(FP), X10; \
	MOVHPD z_lo+80(FP), X10; \
	MOVSD  x_span+56(FP), X11; \
	MOVHPD y_span+72(FP), X11; \
	MOVSD  z_span+88(FP), X12; \
	MOVHPD x_span+56(FP), X12; \
	MOVSD  y_span+72(FP), X13; \
	MOVHPD z_span+88(FP), X13

// FLAT leaves in m an all-ones lane where span <= 0: a flat or inverted
// axis, constant over the call.
#define FLAT(span, m) \
	XORPD X0, X0; \
	MOVAPD span, m; \
	CMPPD X0, m, $2

// QUANT quantizes the two float32 coordinates at off(SI) into the two
// low int32 elements of out, through mask register m:
//
//	t = (float64(v) - lo) / span, y = t·65535
//	0.5 ≤ y fails where t is NaN, where t ≤ 0 and where roundSteps
//	    guards y < 0.5: the lane is 0
//	min(y + 0.5, 65535): t ≥ 1 is 65535, and for t < 1, where y ≤
//	    65535, the clamp truncates as y + 0.5 does
//	truncate to int32, as roundSteps' uint16(y + 0.5)
//
// A flat or inverted axis divides by NaN (FLAT's lanes, set once), so
// its lanes fail the compare as a NaN coordinate does.
#define QUANT(off, lo, span, out, m) \
	CVTPS2PD  off(SI), out; \
	SUBPD     lo, out; \
	DIVPD     span, out; \
	MULPD     X15, out; \
	MOVAPD    X14, m; \
	CMPPD     out, m, $2; \
	ADDPD     X14, out; \
	MINPD     X15, out; \
	ANDPD     m, out; \
	CVTTPD2PL out, out

// func quantPairs(dst []byte, pts []vmath.Vec3, x, y, z axis)
TEXT ·quantPairs(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ pts_base+24(FP), SI
	MOVQ pts_len+32(FP), CX
	SHRQ $1, CX
	JZ   qdone
	AXES

	// A flat or inverted axis's span becomes NaN: all ones.
	FLAT(X11, X1)
	ORPD X1, X11
	FLAT(X12, X1)
	ORPD X1, X12
	FLAT(X13, X1)
	ORPD X1, X13

	MOVQ   $0x3fe0000000000000, AX // 0.5
	MOVQ   AX, X14
	MOVLHPS X14, X14
	MOVQ   $0x40efffe000000000, AX // 65535
	MOVQ   AX, X15
	MOVLHPS X15, X15

qloop:
	QUANT(0, X8, X11, X0, X3)
	QUANT(8, X9, X12, X1, X4)
	QUANT(16, X10, X13, X2, X5)

	// The low 16 bits of each int32, in order: PSHUFLW and PSHUFHW
	// gather the even words of each half, PSHUFD the two halves.
	// (PACKSSDW, PACKSSLW to Go, would saturate above 32767.)
	PUNPCKLQDQ X1, X0
	PSHUFLW    $0x08, X0, X0
	PSHUFHW    $0x08, X0, X0
	PSHUFD     $0x08, X0, X0
	MOVQ       X0, 0(DI)
	PSHUFLW    $0x08, X2, X2
	MOVSS      X2, 8(DI)

	ADDQ $24, SI
	ADDQ $12, DI
	DECQ CX
	JNZ  qloop

qdone:
	RET

// DEQUANT maps the two int32 elements of v onto their axes as
// float32s: lo + (float64(q)/65535)·span, the divide first as the
// scalar code takes it. A flat or inverted axis multiplies by -0
// (set once), and lo + -0 is lo, sign of zero included, as the scalar
// code's float32(lo).
#define DEQUANT(v, lo, span) \
	CVTPL2PD v, v; \
	DIVPD    X15, v; \
	MULPD    span, v; \
	ADDPD    lo, v; \
	CVTPD2PS v, v

// func dequantPairs(pts []vmath.Vec3, src []byte, x, y, z axis)
TEXT ·dequantPairs(SB), NOSPLIT, $0-96
	MOVQ pts_base+0(FP), DI
	MOVQ pts_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $1, CX
	JZ   ddone
	AXES

	// A flat or inverted axis's span becomes -0.
	MOVQ    $0x8000000000000000, AX
	MOVQ    AX, X14
	MOVLHPS X14, X14
	FLAT(X11, X1)
	MOVAPD  X1, X2
	ANDNPD  X11, X1
	ANDPD   X14, X2
	ORPD    X2, X1
	MOVAPD  X1, X11
	FLAT(X12, X1)
	MOVAPD  X1, X2
	ANDNPD  X12, X1
	ANDPD   X14, X2
	ORPD    X2, X1
	MOVAPD  X1, X12
	FLAT(X13, X1)
	MOVAPD  X1, X2
	ANDNPD  X13, X1
	ANDPD   X14, X2
	ORPD    X2, X1
	MOVAPD  X1, X13

	MOVQ    $0x40efffe000000000, AX // 65535
	MOVQ    AX, X15
	MOVLHPS X15, X15
	PXOR    X14, X14

dloop:
	// Two points' six uint16s, widened to int32 by interleaving zeros.
	MOVQ      0(SI), X0
	MOVSS     8(SI), X1
	PUNPCKLWL X14, X0
	PUNPCKLWL X14, X1
	PSHUFD    $0x0e, X0, X2
	DEQUANT(X0, X8, X11)
	DEQUANT(X2, X9, X12)
	DEQUANT(X1, X10, X13)
	MOVLHPS   X2, X0
	MOVUPS    X0, 0(DI)
	MOVSD     X1, 16(DI)

	ADDQ $12, SI
	ADDQ $24, DI
	DECQ CX
	JNZ  dloop

ddone:
	RET
