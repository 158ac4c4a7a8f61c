package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewZero(t *testing.T) {
	v := New(4)
	if v.Dim() != 4 {
		t.Fatalf("dim = %d, want 4", v.Dim())
	}
	for i, x := range v {
		if x != 0 {
			t.Errorf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 42
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestDot(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, -5, 6}
	if got := a.Dot(b); !almostEqual(got, 12) {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestDotDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dot on mismatched dims did not panic")
		}
	}()
	Vector{1}.Dot(Vector{1, 2})
}

func TestL2KnownValues(t *testing.T) {
	a := Vector{0, 0}
	b := Vector{3, 4}
	if got := a.L2Sq(b); !almostEqual(got, 25) {
		t.Errorf("L2Sq = %v, want 25", got)
	}
}

func TestCosine(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if got := a.Cosine(b); !almostEqual(got, 0) {
		t.Errorf("orthogonal cosine = %v, want 0", got)
	}
	if got := a.Cosine(Vector{2, 0}); !almostEqual(got, 1) {
		t.Errorf("parallel cosine = %v, want 1", got)
	}
	if got := a.Cosine(Vector{-3, 0}); !almostEqual(got, -1) {
		t.Errorf("antiparallel cosine = %v, want -1", got)
	}
	zero := Vector{0, 0}
	if got := a.Cosine(zero); got != 0 {
		t.Errorf("cosine with zero vector = %v, want 0", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	v := Vector{1, 2}
	v.Add(Vector{3, 4})
	if v[0] != 4 || v[1] != 6 {
		t.Errorf("Add: got %v", v)
	}
	v.Sub(Vector{1, 1})
	if v[0] != 3 || v[1] != 5 {
		t.Errorf("Sub: got %v", v)
	}
	v.Scale(2)
	if v[0] != 6 || v[1] != 10 {
		t.Errorf("Scale: got %v", v)
	}
	v.Axpy(0.5, Vector{2, 2})
	if v[0] != 7 || v[1] != 11 {
		t.Errorf("Axpy: got %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Errorf("Zero: got %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEqual(v.Norm(), 1) {
		t.Errorf("normalized norm = %v, want 1", v.Norm())
	}
	zero := Vector{0, 0}
	zero.Normalize() // must not panic or NaN
	if zero[0] != 0 {
		t.Errorf("zero normalize changed vector: %v", zero)
	}
}

func randVec(rng *rand.Rand, d int) Vector {
	v := New(d)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// Property: triangle inequality for L2.
func TestL2TriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r, 8), randVec(r, 8), randVec(r, 8)
		l2 := func(v, w Vector) float64 { return math.Sqrt(v.L2Sq(w)) }
		return l2(a, c) <= l2(a, b)+l2(b, c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Cauchy-Schwarz, |<a,b>| <= |a||b|.
func TestCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r, 6), randVec(r, 6)
		return math.Abs(a.Dot(b)) <= a.Norm()*b.Norm()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent and L2Sq agrees with the squared
// norm of the difference.
func TestNormalizeIdempotentAndL2Consistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randVec(r, 5), randVec(r, 5)
		n1 := a.Clone().Normalize()
		n2 := n1.Clone().Normalize()
		for i := range n1 {
			if math.Abs(n1[i]-n2[i]) > 1e-12 {
				return false
			}
		}
		d := a.Clone().Sub(b)
		return math.Abs(d.Norm()*d.Norm()-a.L2Sq(b)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatrixRowSharing(t *testing.T) {
	m := NewMatrix(3, 2)
	m.Row(1)[0] = 7
	if m.Data[1*m.Cols+0] != 7 {
		t.Error("Row does not share storage with matrix")
	}
	m.Data[2*m.Cols+1] = 5
	if m.Row(2)[1] != 5 {
		t.Error("a write to Data is not visible through Row")
	}
}

func TestMatrixRowOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Row out of range did not panic")
		}
	}()
	NewMatrix(1, 1).Row(1)
}
