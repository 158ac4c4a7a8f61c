package vec

import (
	"math"
	"unsafe"
)

// This file holds the float64 kernels of the fine-tuning stage: the
// float32→float64 pooling of a whole document (PoolRows64) and its
// per-row step (axpyInto64), the gradient accumulate behind Vector.Axpy,
// and one Adam row update (AdamRow). Every one is element-wise — no
// element's result depends on another's — so unlike the reductions of
// kernels32.go there is no lane order to keep: a lane is an element.
//
// On amd64 axpyInto64, Vector.Axpy and AdamRow are SSE2 assembly
// (kernels64_amd64.s) that does two elements per instruction with
// CVTPS2PD, MULPD, ADDPD, SUBPD, DIVPD, SQRTPD and CVTPD2PS. Each of those
// rounds every lane exactly as the scalar instruction the Go body compiles
// to, and Go on amd64 fuses a multiply and an add only where the source
// says math.FMA, so the assembly and the Go bodies (axpyInto64Go,
// axpy64Go, adamRowGo) give the same bits at every GOAMD64 level, but for
// which operand's payload a NaN result carries. Other architectures run
// the Go bodies, which amd64 builds compile and test as the oracle.
//
// PoolRows64 is one call per document. Its AVX2 body runs on amd64 when
// CPUID reports AVX2 and XGETBV shows the OS saving the YMM registers
// (checked once, at init) and the row width is a positive multiple of 32;
// everything else — no AVX2, a width such as 12 or 48, other
// architectures — runs poolRows64Go, which is one axpyInto64 per token,
// the loop the fine-tune ran before the kernel existed. The AVX2 body
// keeps 32 float64 sums in Y0–Y7 across all the document's tokens, so a
// 64-wide row takes two passes and no sum is loaded or stored between
// tokens. Per token it widens the row's floats with VCVTPS2PD (exact),
// multiplies by the broadcast weight with VMULPD and adds into the sum
// with VADDPD — no FMA — so each element sees the same roundings in the
// same token order as the Go body's dst[j] += w*float64(row[j]), from the
// same +0. It prefetches (PREFETCHT0) the pass's part of the row four
// tokens ahead: a document's rows are scattered over a table larger than
// L2, and without the prefetch BenchmarkPoolRows64 reads 1.4-1.6 us a
// document against 1.0-1.1 us with it, at a distance of 2, 4 or 8 alike.
//
// Why AVX2: an SSE2 body holds 2 sums per XMM register, so 16 sums a pass
// and four passes over a 64-wide row, and it pooled a document in
// 1.5-1.75 us where the AVX2 body takes 0.8-1.0 us and the Go body
// 2.9-3.1 us (BenchmarkPoolRows64, 2-vCPU Xeon VM). AVX-512 would take a
// 64-wide row in one pass, but it is a third body to keep for the CPUs
// that have it, and after this kernel the pooling is a fifth of the
// fine-tune's CPU, behind the Adam step.

// axpyInto64Go is the portable body of axpyInto64, dst += alpha*x with
// float64 accumulation over float32 inputs, one token's step of
// poolRows64Go; the caller has checked the lengths.
func axpyInto64Go(dst []float64, alpha float64, x []float32) {
	n := len(dst)
	x = x[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dd := dst[i : i+8 : i+8]
		xx := x[i : i+8 : i+8]
		dd[0] += alpha * float64(xx[0])
		dd[1] += alpha * float64(xx[1])
		dd[2] += alpha * float64(xx[2])
		dd[3] += alpha * float64(xx[3])
		dd[4] += alpha * float64(xx[4])
		dd[5] += alpha * float64(xx[5])
		dd[6] += alpha * float64(xx[6])
		dd[7] += alpha * float64(xx[7])
	}
	for ; i < n; i++ {
		dst[i] += alpha * float64(x[i])
	}
}

// PoolRows64 sets dst to the sum over i of ws[i]*float64(x) for x in row
// toks[i] of table, element by element, each sum taken from +0 in token
// order with every product and addition rounded to float64 — the
// mean-pooling of a document whose weights are ws, in one call instead of
// one row at a time. It panics with a *ShapeError when len(dst) is
// not the table's width, when len(ws) != len(toks), or when a token is
// not a row of table.
func PoolRows64[T ~int32](dst []float64, table *Matrix32, toks []T, ws []float64) {
	if len(dst) != table.Cols {
		panic(&ShapeError{Op: "PoolRows64 of a row into a vector of another width", Rows: table.Cols, Cols: len(dst)})
	}
	if len(ws) != len(toks) {
		panic(&ShapeError{Op: "PoolRows64 with one weight per token", Rows: len(toks), Cols: len(ws)})
	}
	for _, t := range toks {
		if t < 0 || int(t) >= table.Rows {
			panic(&ShapeError{Op: "PoolRows64 of a token outside the table", Rows: int(t), Cols: table.Rows})
		}
	}
	poolRows64(dst, table.Data, unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(toks))), len(toks)), ws)
}

// poolRows64Go is the portable body of PoolRows64; the caller has checked
// the shapes. rows holds rows of len(dst) floats.
func poolRows64Go(dst []float64, rows []float32, toks []int32, ws []float64) {
	clear(dst)
	dim := len(dst)
	for i, t := range toks {
		r := int(t) * dim
		axpyInto64(dst, ws[i], rows[r:r+dim])
	}
}

// axpy64Go is the portable body of Vector.Axpy; the caller has checked
// the lengths.
func axpy64Go(v []float64, a float64, w []float64) {
	w = w[:len(v)]
	for i := range v {
		v[i] += a * w[i]
	}
}

// AdamCoef holds the coefficients of one Adam row update. OneMinusBeta1
// and OneMinusBeta2 are 1-Beta1 and 1-Beta2 and BiasCorr1 and BiasCorr2
// are 1-Beta1^t and 1-Beta2^t for the row's step t, each computed by the
// caller in float64, so the update sees the same operands whoever
// computes them. The field order is the layout kernels64_amd64.s reads.
type AdamCoef struct {
	Beta1, OneMinusBeta1  float64
	Beta2, OneMinusBeta2  float64
	BiasCorr1, BiasCorr2  float64
	LearningRate, Epsilon float64
}

// AdamRow applies one Adam update to a row of float32 weights w with
// float64 moments m and v and gradient g, element by element:
//
//	m = Beta1*m + OneMinusBeta1*g
//	v = Beta2*v + OneMinusBeta2*g*g
//	w = float32(float64(w) - LearningRate*(m/BiasCorr1)/(sqrt(v/BiasCorr2)+Epsilon))
//
// in that order of operations, every one rounded to float64 and the new
// weight rounded once to float32. It panics with a *ShapeError unless
// the four slices have one length.
func AdamRow(w []float32, m, v, g []float64, k *AdamCoef) {
	if len(m) != len(w) || len(v) != len(w) || len(g) != len(w) {
		panic(&ShapeError{Op: "AdamRow of rows of different lengths", Rows: len(w), Cols: len(g)})
	}
	adamRow(w, m, v, g, k)
}

// adamRowGo is the portable body of AdamRow; the caller has checked the
// lengths.
func adamRowGo(w []float32, m, v, g []float64, k *AdamCoef) {
	m, v, g = m[:len(w)], v[:len(w)], g[:len(w)]
	for j, gj := range g {
		m[j] = k.Beta1*m[j] + k.OneMinusBeta1*gj
		v[j] = k.Beta2*v[j] + k.OneMinusBeta2*gj*gj
		mHat := m[j] / k.BiasCorr1
		vHat := v[j] / k.BiasCorr2
		w[j] = float32(float64(w[j]) - k.LearningRate*mHat/(math.Sqrt(vHat)+k.Epsilon))
	}
}
