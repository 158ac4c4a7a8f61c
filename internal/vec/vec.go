// Package vec provides the dense vector and matrix primitives used by the
// document encoder, the triplet-loss trainer, and the proximity-graph index.
//
// Everything is float64 and stdlib-only. Vectors are plain []float64 slices
// wrapped in the Vector type so that method names document intent (L2, Dot,
// Axpy, ...) without hiding the underlying storage; callers may index and
// slice a Vector directly.
package vec

import (
	"fmt"
	"math"
)

// Vector is a dense real-valued vector.
type Vector []float64

// New returns a zero vector of dimension d.
func New(d int) Vector { return make(Vector, d) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Dot returns the inner product <v, w>. It panics if dimensions differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: dot of mismatched dims %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// L2Sq returns the squared Euclidean distance between v and w. It is the
// form used in inner loops where only distance comparisons matter, avoiding
// the square root.
func (v Vector) L2Sq(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: l2 of mismatched dims %d and %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return s
}

// Cosine returns the cosine similarity between v and w, in [-1, 1].
// Zero vectors have similarity 0 by convention.
func (v Vector) Cosine(w Vector) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Add sets v = v + w in place and returns v. It panics if dimensions
// differ.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: add of mismatched dims %d and %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
	return v
}

// Sub sets v = v - w in place and returns v. It panics if dimensions
// differ.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: sub of mismatched dims %d and %d", len(v), len(w)))
	}
	for i := range v {
		v[i] -= w[i]
	}
	return v
}

// Scale sets v = a*v in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Axpy sets v = v + a*w in place and returns v (the BLAS "axpy" primitive
// the trainer uses to accumulate gradients; SSE2 on amd64, see
// kernels64.go). It panics if dimensions differ.
func (v Vector) Axpy(a float64, w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: axpy of mismatched dims %d and %d", len(v), len(w)))
	}
	axpy64(v, a, w)
	return v
}

// Normalize scales v to unit L2 norm in place and returns v. A zero vector
// is left unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Zero resets every component of v to 0 and returns v.
func (v Vector) Zero() Vector {
	for i := range v {
		v[i] = 0
	}
	return v
}
