package vec

import (
	"fmt"
	"math"
)

// This file holds the float64 kernels of the fine-tuning stage: the
// float32→float64 pooling accumulate (AxpyInto64), the gradient
// accumulate behind Vector.Axpy, and one Adam row update (AdamRow).
// Every one is element-wise — no element's result depends on another's —
// so unlike the reductions of kernels32.go there is no lane order to
// keep: a lane is an element.
//
// On amd64 the three are SSE2 assembly (kernels64_amd64.s) that does two
// elements per instruction with CVTPS2PD, MULPD, ADDPD, SUBPD, DIVPD,
// SQRTPD and CVTPD2PS. Each of those rounds every lane exactly as the
// scalar instruction the Go body compiles to, and Go on amd64 fuses a
// multiply and an add only where the source says math.FMA, so the
// assembly and the Go bodies (axpyInto64Go, axpy64Go, adamRowGo) give the
// same bits at every GOAMD64 level, but for which operand's payload a NaN
// result carries. Other architectures run the Go bodies, which amd64
// builds compile and test as the oracle.

// AxpyInto64 sets dst = dst + alpha*x with float64 accumulation over
// float32 inputs — the mixed-precision primitive the trainer pools with,
// so gradient checks keep float64 resolution while the table stays
// float32. Element-wise; panics if lengths differ.
func AxpyInto64(dst []float64, alpha float64, x []float32) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("vec: axpyinto64 of mismatched dims %d and %d", len(dst), len(x)))
	}
	axpyInto64(dst, alpha, x)
}

// axpyInto64Go is the portable body of AxpyInto64; the caller has checked
// the lengths.
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
