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

// func l2SqRows32AVX2(dst, rows, q []float32)
//
// l2SqRows32 two rows per YMM register, len(dst) even and len(q) a
// positive multiple of 8. The low lane of Y0 holds row r's s0..s3 and
// the high lane row r+1's, so each lane runs the SSE2 body's statements
// in its order: row minus q, squared, the low half plus the high half
// (VPERM2F128 pairs them across the two rows), then into the sum. The
// row is loaded and q is the memory operand, as SUBPS has them above,
// so even a NaN keeps its payload. AX and R11 walk the two rows.
TEXT ·l2SqRows32AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ rows_base+24(FP), AX
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), BX
	SHRQ $1, CX // pairs of rows

pair:
	VXORPS Y0, Y0, Y0
	LEAQ   (AX)(BX*4), R11
	MOVQ   BX, R8 // floats left in this row
	MOVQ   DX, R9 // q cursor

eight:
	VMOVUPS    (AX), Y1
	VMOVUPS    (R11), Y2
	VSUBPS     (R9), Y1, Y1
	VSUBPS     (R9), Y2, Y2
	VMULPS     Y1, Y1, Y1
	VMULPS     Y2, Y2, Y2
	VPERM2F128 $0x20, Y2, Y1, Y3 // both rows' d[l]^2
	VPERM2F128 $0x31, Y2, Y1, Y4 // both rows' d[l+4]^2
	VADDPS     Y4, Y3, Y3
	VADDPS     Y3, Y0, Y0
	ADDQ       $32, AX
	ADDQ       $32, R11
	ADDQ       $32, R9
	SUBQ       $8, R8
	JNZ        eight

	// (s0+s1) + (s2+s3) in each lane
	VPSHUFD      $0xB1, Y0, Y1
	VADDPS       Y1, Y0, Y0
	VPSHUFD      $0x0E, Y0, Y1
	VADDPS       Y1, Y0, Y0
	VMOVSS       X0, (DI)
	VEXTRACTF128 $1, Y0, X1
	VMOVSS       X1, 4(DI)
	ADDQ         $8, DI
	MOVQ         R11, AX // past row r+1: the next pair
	DECQ         CX
	JNZ          pair
	VZEROUPPER
	RET

// func poolRows32AVX2(dst, rows []float32, toks []int32, ws []float64)
//
// dst[j] = sum over i of float32(ws[i])*rows[toks[i]*len(dst)+j], from +0
// in token order, len(dst) a positive multiple of 8. A wide pass holds the
// sums of 64 elements in Y0-Y7 across every token and stores them once;
// per token it rounds the weight to float32 (VCVTSD2SS), broadcasts it to
// Y8, and runs VMULPS then VADDPS per eight elements. The floats past the
// last multiple of 64 take one pass of eight sums (Y0) each. SI is the
// pass's column in the table, so a token's part of its row starts at
// SI + token*R10.
TEXT ·poolRows32AVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), DX
	MOVQ rows_base+24(FP), SI
	MOVQ toks_base+48(FP), R8
	MOVQ toks_len+56(FP), CX
	MOVQ ws_base+72(FP), R9
	MOVQ DX, R10
	SHLQ $2, R10 // a row's bytes
	CMPQ DX, $64
	JB   narrow

wide:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   BX, BX // token index
	TESTQ  CX, CX
	JZ     widestore

widetoken:
	MOVLQSX      (R8)(BX*4), AX
	IMULQ        R10, AX
	ADDQ         SI, AX
	VCVTSD2SS    (R9)(BX*8), X8, X8
	VBROADCASTSS X8, Y8

	// The same pass's part of the row four tokens ahead.
	LEAQ       4(BX), R11
	CMPQ       R11, CX
	JAE        widesum
	MOVLQSX    (R8)(R11*4), R11
	IMULQ      R10, R11
	PREFETCHT0 (SI)(R11*1)
	PREFETCHT0 64(SI)(R11*1)
	PREFETCHT0 128(SI)(R11*1)
	PREFETCHT0 192(SI)(R11*1)

widesum:
	VMULPS (AX), Y8, Y9
	VMULPS 32(AX), Y8, Y10
	VMULPS 64(AX), Y8, Y11
	VMULPS 96(AX), Y8, Y12
	VADDPS Y9, Y0, Y0
	VADDPS Y10, Y1, Y1
	VADDPS Y11, Y2, Y2
	VADDPS Y12, Y3, Y3
	VMULPS 128(AX), Y8, Y9
	VMULPS 160(AX), Y8, Y10
	VMULPS 192(AX), Y8, Y11
	VMULPS 224(AX), Y8, Y12
	VADDPS Y9, Y4, Y4
	VADDPS Y10, Y5, Y5
	VADDPS Y11, Y6, Y6
	VADDPS Y12, Y7, Y7
	INCQ   BX
	CMPQ   BX, CX
	JB     widetoken

widestore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, SI
	SUBQ    $64, DX
	CMPQ    DX, $64
	JAE     wide

narrow:
	TESTQ DX, DX
	JZ    done

eight:
	VXORPS Y0, Y0, Y0
	XORQ   BX, BX
	TESTQ  CX, CX
	JZ     eightstore

eighttoken:
	MOVLQSX      (R8)(BX*4), AX
	IMULQ        R10, AX
	VCVTSD2SS    (R9)(BX*8), X8, X8
	VBROADCASTSS X8, Y8
	VMULPS       (SI)(AX*1), Y8, Y9
	VADDPS       Y9, Y0, Y0
	INCQ         BX
	CMPQ         BX, CX
	JB           eighttoken

eightstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, DX
	JNZ     eight

done:
	VZEROUPPER
	RET
