#include "textflag.h"

// The float64 kernels of kernels64.go, two elements per SSE2 instruction
// and a scalar step for an odd last element. Loads and stores are
// unaligned (MOVUPD, or 8-byte CVTPS2PD and MOVSD for a pair of floats),
// so no packed instruction takes a memory operand, which SSE2 would
// require to be 16-byte aligned.

// func axpyInto64(dst []float64, alpha float64, x []float32)
//
// dst[i] = float64(x[i])*alpha + dst[i], four elements per step, then
// two, then one.
TEXT ·axpyInto64(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     dst_len+8(FP), CX
	MOVSD    alpha+24(FP), X0
	MOVQ     x_base+32(FP), SI
	UNPCKLPD X0, X0 // alpha in both lanes
	CMPQ     CX, $4
	JB       pair

four:
	CVTPS2PD (SI), X1
	CVTPS2PD 8(SI), X2
	MOVUPD   (DI), X3
	MOVUPD   16(DI), X4
	MULPD    X0, X1
	MULPD    X0, X2
	ADDPD    X3, X1
	ADDPD    X4, X2
	MOVUPD   X1, (DI)
	MOVUPD   X2, 16(DI)
	ADDQ     $16, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	CMPQ     CX, $4
	JAE      four

pair:
	CMPQ     CX, $2
	JB       tail
	CVTPS2PD (SI), X1
	MOVUPD   (DI), X3
	MULPD    X0, X1
	ADDPD    X3, X1
	MOVUPD   X1, (DI)
	ADDQ     $8, SI
	ADDQ     $16, DI
	SUBQ     $2, CX

tail:
	TESTQ    CX, CX
	JZ       done
	CVTSS2SD (SI), X1
	MULSD    X0, X1
	ADDSD    (DI), X1
	MOVSD    X1, (DI)

done:
	RET

// func axpy64(v []float64, a float64, w []float64)
//
// v[i] = w[i]*a + v[i], four elements per step, then two, then one.
TEXT ·axpy64(SB), NOSPLIT, $0-56
	MOVQ     v_base+0(FP), DI
	MOVQ     v_len+8(FP), CX
	MOVSD    a+24(FP), X0
	MOVQ     w_base+32(FP), SI
	UNPCKLPD X0, X0 // a in both lanes
	CMPQ     CX, $4
	JB       pair

four:
	MOVUPD (SI), X1
	MOVUPD 16(SI), X2
	MOVUPD (DI), X3
	MOVUPD 16(DI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	ADDPD  X3, X1
	ADDPD  X4, X2
	MOVUPD X1, (DI)
	MOVUPD X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JAE    four

pair:
	CMPQ   CX, $2
	JB     tail
	MOVUPD (SI), X1
	MOVUPD (DI), X3
	MULPD  X0, X1
	ADDPD  X3, X1
	MOVUPD X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX

tail:
	TESTQ CX, CX
	JZ    done
	MOVSD (SI), X1
	MULSD X0, X1
	ADDSD (DI), X1
	MOVSD X1, (DI)

done:
	RET

// func adamRow(w []float32, m, v, g []float64, k *AdamCoef)
//
// One Adam update of len(w) weights, two per step, then one. X7-X14
// hold the eight coefficients of *k in both lanes, in AdamCoef's field
// order; X0-X6 are scratch. X15 is left alone.
TEXT ·adamRow(SB), NOSPLIT, $0-104
	MOVQ     w_base+0(FP), DI
	MOVQ     w_len+8(FP), CX
	MOVQ     m_base+24(FP), R8
	MOVQ     v_base+48(FP), R9
	MOVQ     g_base+72(FP), R10
	MOVQ     k+96(FP), AX
	MOVSD    0(AX), X7  // Beta1
	MOVSD    8(AX), X8  // OneMinusBeta1
	MOVSD    16(AX), X9 // Beta2
	MOVSD    24(AX), X10 // OneMinusBeta2
	MOVSD    32(AX), X11 // BiasCorr1
	MOVSD    40(AX), X12 // BiasCorr2
	MOVSD    48(AX), X13 // LearningRate
	MOVSD    56(AX), X14 // Epsilon
	UNPCKLPD X7, X7
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	UNPCKLPD X10, X10
	UNPCKLPD X11, X11
	UNPCKLPD X12, X12
	UNPCKLPD X13, X13
	UNPCKLPD X14, X14
	CMPQ     CX, $2
	JB       tail

pair:
	MOVUPD   (R10), X1 // g
	MOVUPD   (R8), X2
	MOVAPD   X7, X0
	MULPD    X2, X0    // Beta1*m
	MOVAPD   X8, X2
	MULPD    X1, X2    // OneMinusBeta1*g
	ADDPD    X2, X0    // m
	MOVUPD   X0, (R8)
	MOVUPD   (R9), X3
	MULPD    X9, X3    // v*Beta2
	MOVAPD   X10, X2
	MULPD    X1, X2    // OneMinusBeta2*g
	MULPD    X2, X1    // g*(OneMinusBeta2*g)
	ADDPD    X1, X3    // v
	MOVUPD   X3, (R9)
	DIVPD    X11, X0   // mHat
	DIVPD    X12, X3   // vHat
	MULPD    X13, X0   // mHat*LearningRate
	SQRTPD   X3, X3
	MOVAPD   X14, X2
	ADDPD    X3, X2    // Epsilon+sqrt(vHat)
	DIVPD    X2, X0    // the step
	CVTPS2PD (DI), X4
	SUBPD    X0, X4
	CVTPD2PS X4, X4
	MOVSD    X4, (DI)  // two float32 weights
	ADDQ     $8, DI
	ADDQ     $16, R8
	ADDQ     $16, R9
	ADDQ     $16, R10
	SUBQ     $2, CX
	CMPQ     CX, $2
	JAE      pair

tail:
	TESTQ    CX, CX
	JZ       done
	MOVSD    (R10), X1
	MOVSD    X7, X0
	MULSD    (R8), X0
	MOVSD    X8, X2
	MULSD    X1, X2
	ADDSD    X2, X0
	MOVSD    X0, (R8)
	MOVSD    (R9), X3
	MULSD    X9, X3
	MOVSD    X10, X2
	MULSD    X1, X2
	MULSD    X2, X1
	ADDSD    X1, X3
	MOVSD    X3, (R9)
	DIVSD    X11, X0
	DIVSD    X12, X3
	MULSD    X13, X0
	SQRTSD   X3, X3
	MOVSD    X14, X2
	ADDSD    X3, X2
	DIVSD    X2, X0
	CVTSS2SD (DI), X4
	SUBSD    X0, X4
	CVTSD2SS X4, X4
	MOVSS    X4, (DI)

done:
	RET
