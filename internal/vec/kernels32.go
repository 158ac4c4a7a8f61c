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
// the reduction is (s0+s1)+(s2+s3). Every amd64 CPU has SSE2, so there is
// no CPU-feature dispatch and no second path to choose. AVX and FMA are
// left out on purpose: 8 or 16 lanes sum different terms per lane, and a
// fused multiply-add rounds once where the order rounds twice, so either
// would change published bits. Other architectures run the portable
// bodies (l2Sq32Go, l2SqRows32Go), which amd64 builds compile and test
// too.

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
		s0 += aa[0]*bb[0] + aa[4]*bb[4]
		s1 += aa[1]*bb[1] + aa[5]*bb[5]
		s2 += aa[2]*bb[2] + aa[6]*bb[6]
		s3 += aa[3]*bb[3] + aa[7]*bb[7]
	}
	if i+4 <= n {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		i += 4
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
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
	l2SqRows32(dst, rows, q)
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
		s0 += d0*d0 + d4*d4
		s1 += d1*d1 + d5*d5
		s2 += d2*d2 + d6*d6
		s3 += d3*d3 + d7*d7
	}
	if i+4 <= n {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		d0 := aa[0] - bb[0]
		d1 := aa[1] - bb[1]
		d2 := aa[2] - bb[2]
		d3 := aa[3] - bb[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		i += 4
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
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
	n := len(dst)
	if len(x) != n {
		panic(fmt.Sprintf("vec: axpy32 of mismatched dims %d and %d", n, len(x)))
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		dd := dst[i : i+8 : i+8]
		xx := x[i : i+8 : i+8]
		dd[0] += alpha * xx[0]
		dd[1] += alpha * xx[1]
		dd[2] += alpha * xx[2]
		dd[3] += alpha * xx[3]
		dd[4] += alpha * xx[4]
		dd[5] += alpha * xx[5]
		dd[6] += alpha * xx[6]
		dd[7] += alpha * xx[7]
	}
	for ; i < n; i++ {
		dst[i] += alpha * x[i]
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
