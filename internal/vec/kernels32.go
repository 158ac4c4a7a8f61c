package vec

import (
	"fmt"
	"math"
	"unsafe"
)

// This file holds the float32 compute kernels behind Vec32 and Matrix32:
// 8-wide unrolled, bounds-check-eliminated inner loops for the distance
// and accumulation primitives every hot path bottoms out in (PG-Index
// search, NNDescent joins, document pooling, gradient accumulation).
//
// Accumulation order is part of each kernel's contract, because float
// addition is not associative and the repo's equivalence guarantees are
// bit-level. The reductions use four independent accumulator lanes:
//
//	lane l (l = 0..3) sums terms  i ≡ l (mod 4)  of the unrolled body,
//	the 8-wide main loop adding the pair (term[i+l] + term[i+l+4]) per
//	step, the 4-wide loop adding term[i+l], and the scalar tail folding
//	the remaining terms into lane 0; the final reduction is
//	(s0+s1) + (s2+s3).
//
// The conformance suite re-implements this order naively and asserts
// bit-equality across every length 0..67, so the unrolling can never
// silently change results.
//
// On amd64 the squared-L2 kernel is SSE2 assembly (kernels32_amd64.s),
// and the lane order is what lets it keep the bits: lane l is slot l of
// one XMM register. An 8-wide step is SUBPS and MULPS on two 4-wide
// halves, ADDPS of the halves, then ADDPS into the accumulator; the
// 4-wide step feeds all four slots; the scalar tail is ADDSS into slot 0;
// the reduction is (s0+s1)+(s2+s3). Every amd64 CPU has SSE2, and L2Sq32
// (one row: the greedy walk's and NNDescent's distance) calls that body
// with no dispatch. L2SqRows32 on a CPU with AVX2, over rows whose width
// is a multiple of 8, runs two rows per YMM register instead: the low
// 128-bit lane holds row r's four accumulators and the high lane row
// r+1's, each lane running the SSE2 statements in their order, with two
// VPERM2F128 pairing the rows' low halves and their high halves before
// the add. An odd last row and other widths run the SSE2 body. Each row
// keeps four lanes, not eight: eight or sixteen lanes per row, or a fused
// multiply-add (one rounding where the order rounds twice), would change
// published bits. Other architectures run the portable bodies
// (l2Sq32Go, l2SqRows32Go), which amd64 builds compile and test too; they
// and Dot32 convert every product to float32, which the Go spec forbids
// fusing into the add, so an architecture with a fused multiply-add
// (arm64) rounds twice, as SSE2 does.

// Dot32 returns the inner product <a, b> in float32, using the package's
// documented four-lane accumulation order. It panics if lengths differ.
func Dot32(a, b []float32) float32 {
	n := len(a)
	if len(b) != n {
		panic(fmt.Sprintf("vec: dot32 of mismatched dims %d and %d", n, len(b)))
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += float32(aa[0]*bb[0]) + float32(aa[4]*bb[4])
		s1 += float32(aa[1]*bb[1]) + float32(aa[5]*bb[5])
		s2 += float32(aa[2]*bb[2]) + float32(aa[6]*bb[6])
		s3 += float32(aa[3]*bb[3]) + float32(aa[7]*bb[7])
	}
	if i+4 <= n {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += float32(aa[0] * bb[0])
		s1 += float32(aa[1] * bb[1])
		s2 += float32(aa[2] * bb[2])
		s3 += float32(aa[3] * bb[3])
		i += 4
	}
	for ; i < n; i++ {
		s0 += float32(a[i] * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// L2Sq32 returns the squared Euclidean distance between a and b in
// float32, with the same four-lane accumulation order as Dot32. It panics
// if lengths differ.
func L2Sq32(a, b []float32) (d float32) {
	if len(a) != len(b) {
		panic(errL2Sq32Dims)
	}
	// One row: the kernel writes its distance through a one-element view
	// of d, which stays on the stack because l2SqRows32 is go:noescape.
	l2SqRows32(unsafe.Slice(&d, 1), a, b)
	return d
}

// errL2Sq32Dims is L2Sq32's panic value, built once: building it at the
// panic, with the two lengths, would put L2Sq32 over the inlining budget.
var errL2Sq32Dims = &ShapeError{Op: "L2Sq32 of slices of different lengths", Rows: -1, Cols: -1}

// L2SqRows32 sets dst[r] to L2Sq32(row r, q) for every row of rows, a
// row-major block of len(dst) rows of len(q) floats. One call covers the
// whole block, so a scan pays the call once per block, not once per row.
// It panics with a *ShapeError unless len(rows) == len(dst)*len(q).
func L2SqRows32(dst, rows, q []float32) {
	if elemsOverflow(len(dst), len(q)) || len(rows) != len(dst)*len(q) {
		panic(&ShapeError{Op: "L2SqRows32 of a block not len(dst) x len(q)", Rows: len(dst), Cols: len(q)})
	}
	l2SqBlock32(dst, rows, q)
}

// l2SqRows32Go is the portable body of L2SqRows32; the caller has checked
// the shapes.
func l2SqRows32Go(dst, rows, q []float32) {
	dim := len(q)
	for r := range dst {
		dst[r] = l2Sq32Go(rows[r*dim:(r+1)*dim:(r+1)*dim], q)
	}
}

// l2Sq32Go is the portable body of L2Sq32 over two slices of one length.
func l2Sq32Go(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		d0, d4 := aa[0]-bb[0], aa[4]-bb[4]
		d1, d5 := aa[1]-bb[1], aa[5]-bb[5]
		d2, d6 := aa[2]-bb[2], aa[6]-bb[6]
		d3, d7 := aa[3]-bb[3], aa[7]-bb[7]
		s0 += float32(d0*d0) + float32(d4*d4)
		s1 += float32(d1*d1) + float32(d5*d5)
		s2 += float32(d2*d2) + float32(d6*d6)
		s3 += float32(d3*d3) + float32(d7*d7)
	}
	if i+4 <= n {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		d0 := aa[0] - bb[0]
		d1 := aa[1] - bb[1]
		d2 := aa[2] - bb[2]
		d3 := aa[3] - bb[3]
		s0 += float32(d0 * d0)
		s1 += float32(d1 * d1)
		s2 += float32(d2 * d2)
		s3 += float32(d3 * d3)
		i += 4
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += float32(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

// L232 returns the Euclidean distance between a and b: the square root of
// L2Sq32, taken in float64 (exact for any float32 input) and rounded back
// once, so Dist values computed from float32 kernels are reproducible.
func L232(a, b []float32) float64 { return sqrtNonNeg(float64(L2Sq32(a, b))) }

// Norm32 returns the Euclidean norm of a, via Dot32(a, a).
func Norm32(a []float32) float64 { return sqrtNonNeg(float64(Dot32(a, a))) }

// Axpy32 sets dst = dst + alpha*x element-wise. Every element is updated
// independently, so no accumulation-order caveat applies. It panics if
// lengths differ.
func Axpy32(dst []float32, alpha float32, x []float32) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("vec: axpy32 of mismatched dims %d and %d", len(dst), len(x)))
	}
	axpy32Go(dst, alpha, x)
}

// axpy32Go is the body of Axpy32, one token's step of poolRows32Go; the
// caller has checked the lengths. Each element is dst[i] +=
// float32(alpha*x[i]): the explicit conversion rounds the product, which
// the Go spec then forbids fusing into the add, so an architecture with a
// fused multiply-add (arm64) rounds twice, as amd64 and the AVX2 body of
// PoolRows32 do.
func axpy32Go(dst []float32, alpha float32, x []float32) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dd := dst[i : i+8 : i+8]
		xx := x[i : i+8 : i+8]
		dd[0] += float32(alpha * xx[0])
		dd[1] += float32(alpha * xx[1])
		dd[2] += float32(alpha * xx[2])
		dd[3] += float32(alpha * xx[3])
		dd[4] += float32(alpha * xx[4])
		dd[5] += float32(alpha * xx[5])
		dd[6] += float32(alpha * xx[6])
		dd[7] += float32(alpha * xx[7])
	}
	for ; i < n; i++ {
		dst[i] += float32(alpha * x[i])
	}
}

// PoolRows32 sets dst to the sum over i of float32(ws[i])*x for x in row
// toks[i] of table, element by element, each sum taken from +0 in token
// order with every product and addition rounded to float32 — Axpy32 of
// each row in turn into a zeroed dst, the float32 pooling of a document
// whose weights are ws, in one call. It panics with a *ShapeError when
// len(dst) is not the table's width, when len(ws) != len(toks), or when a
// token is not a row of table.
//
// On amd64 with AVX2, rows whose width is a positive multiple of 8 pool in
// poolRows32AVX2 (kernels32_amd64.s): it keeps 64 sums in Y0–Y7 across all
// the tokens, so a 64-wide row is one pass and no sum is loaded or stored
// between tokens, and a width past a multiple of 64 takes a pass of 8 sums
// per 8 floats left. Per token it rounds the weight to float32
// (VCVTSD2SS), broadcasts it, multiplies (VMULPS) and adds (VADDPS) — no
// FMA — so each element sees the roundings of axpy32Go in its token
// order. Everything else runs poolRows32Go, one axpy32Go per token.
func PoolRows32[T ~int32](dst []float32, table *Matrix32, toks []T, ws []float64) {
	if len(dst) != table.Cols {
		panic(&ShapeError{Op: "PoolRows32 of a row into a vector of another width", Rows: table.Cols, Cols: len(dst)})
	}
	if len(ws) != len(toks) {
		panic(&ShapeError{Op: "PoolRows32 with one weight per token", Rows: len(toks), Cols: len(ws)})
	}
	for _, t := range toks {
		if t < 0 || int(t) >= table.Rows {
			panic(&ShapeError{Op: "PoolRows32 of a token outside the table", Rows: int(t), Cols: table.Rows})
		}
	}
	poolRows32(dst, table.Data, unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(toks))), len(toks)), ws)
}

// poolRows32Go is the portable body of PoolRows32; the caller has checked
// the shapes. rows holds rows of len(dst) floats.
func poolRows32Go(dst, rows []float32, toks []int32, ws []float64) {
	clear(dst)
	dim := len(dst)
	for i, t := range toks {
		r := int(t) * dim
		axpy32Go(dst, float32(ws[i]), rows[r:r+dim])
	}
}

// Scale32 sets dst = alpha*dst element-wise.
func Scale32(dst []float32, alpha float32) {
	for i := range dst {
		dst[i] *= alpha
	}
}

// sqrtNonNeg is the clamped square root shared by the distance helpers:
// tiny negative rounding artefacts map to 0 instead of NaN.
func sqrtNonNeg(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}
