#include "textflag.h"

// func l2SqRows32(dst, rows, q []float32)
//
// dst[r] = squared L2 distance of row r of rows to q, for r < len(dst),
// rows holding len(dst) rows of len(q) floats. X0 holds the four lanes
// s0..s3 of l2Sq32Go; every step below is one statement of that loop.
// Loads are unaligned (MOVUPS, MOVSS) and never read past a row.
TEXT ·l2SqRows32(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ rows_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), BX
	TESTQ CX, CX
	JZ   done

row:
	XORPS X0, X0
	MOVQ  BX, R8 // floats left in this row
	MOVQ  DX, R9 // q cursor
	CMPQ  R8, $8
	JB    four

eight:
	// s[l] += d[l]*d[l] + d[l+4]*d[l+4], l = 0..3
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS (R9), X3
	MOVUPS 16(R9), X4
	SUBPS  X3, X1
	SUBPS  X4, X2
	MULPS  X1, X1
	MULPS  X2, X2
	ADDPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $32, SI
	ADDQ   $32, R9
	SUBQ   $8, R8
	CMPQ   R8, $8
	JAE    eight

four:
	// s[l] += d[l]*d[l], l = 0..3
	CMPQ   R8, $4
	JB     tail
	MOVUPS (SI), X1
	MOVUPS (R9), X3
	SUBPS  X3, X1
	MULPS  X1, X1
	ADDPS  X1, X0
	ADDQ   $16, SI
	ADDQ   $16, R9
	SUBQ   $4, R8

tail:
	// s0 += d*d, one float at a time
	TESTQ R8, R8
	JZ    reduce

tailloop:
	MOVSS (SI), X1
	SUBSS (R9), X1
	MULSS X1, X1
	ADDSS X1, X0
	ADDQ  $4, SI
	ADDQ  $4, R9
	DECQ  R8
	JNZ   tailloop

reduce:
	// (s0+s1) + (s2+s3)
	PSHUFD  $0xB1, X0, X1 // s1 s0 s3 s2
	ADDPS   X1, X0        // s0+s1 . s2+s3 .
	MOVHLPS X0, X1        // s2+s3 in slot 0
	ADDSS   X1, X0
	MOVSS   X0, (DI)
	ADDQ    $4, DI
	DECQ    CX
	JNZ     row

done:
	RET
