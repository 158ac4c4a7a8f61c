package vec

import (
	"fmt"
	"math"
)

// Vec32 is a dense float32 vector — the storage type of document
// representations throughout the online system. Its methods run on the
// unrolled kernels of kernels32.go; callers may index and slice a Vec32
// directly, exactly as with Vector.
type Vec32 []float32

// New32 returns a zero float32 vector of dimension d.
func New32(d int) Vec32 { return make(Vec32, d) }

// Float64 converts v to a float64 Vector. Every float32 value is exactly
// representable in float64, so the conversion is lossless: rounding each
// component back to float32 reproduces v bit for bit.
func (v Vec32) Float64() Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// Dim returns the dimensionality of v.
func (v Vec32) Dim() int { return len(v) }

// Norm returns the Euclidean norm of v as float64.
func (v Vec32) Norm() float64 { return Norm32(v) }

// L2 returns the Euclidean distance between v and w as float64.
func (v Vec32) L2(w Vec32) float64 { return L232(v, w) }

// Scale sets v = a*v in place and returns v.
func (v Vec32) Scale(a float32) Vec32 {
	Scale32(v, a)
	return v
}

// Axpy sets v = v + a*w in place and returns v.
func (v Vec32) Axpy(a float32, w Vec32) Vec32 {
	Axpy32(v, a, w)
	return v
}

// Normalize scales v to unit L2 norm in place and returns v. A zero
// vector is left unchanged. The reciprocal norm is formed in float64 and
// rounded once, matching Vector.Normalize's structure.
func (v Vec32) Normalize() Vec32 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(float32(1 / n))
}

// Zero resets every component of v to 0 and returns v.
func (v Vec32) Zero() Vec32 {
	for i := range v {
		v[i] = 0
	}
	return v
}

// Mean32 returns the component-wise mean of vs, accumulated in float64
// for stability and rounded once per component. It panics if vs is empty.
func Mean32(vs []Vec32) Vec32 {
	if len(vs) == 0 {
		panic("vec: mean of no vectors")
	}
	d := vs[0].Dim()
	acc := make([]float64, d)
	for _, v := range vs {
		if len(v) != d {
			panic(fmt.Sprintf("vec: mean of mismatched dims %d and %d", d, len(v)))
		}
		for j, x := range v {
			acc[j] += float64(x)
		}
	}
	out := make(Vec32, d)
	inv := 1 / float64(len(vs))
	for j, s := range acc {
		out[j] = float32(s * inv)
	}
	return out
}

// IsFinite32 reports whether every component of v is finite (no NaN or
// Inf) — the sanity check quantization applies before coding a row.
func IsFinite32(v []float32) bool {
	for _, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return false
		}
	}
	return true
}
