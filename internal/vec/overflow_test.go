package vec

import (
	"errors"
	"math"
	"testing"
)

// TestConstructorOverflowGuard pins the rows*cols overflow fix: shapes
// whose element count wraps int must be refused with a *ShapeError, never
// reach make with a wrapped (possibly tiny or negative) size.
func TestConstructorOverflowGuard(t *testing.T) {
	half := math.MaxInt/2 + 1 // 2*half wraps negative
	bad := [][2]int{
		{math.MaxInt, 2},
		{2, math.MaxInt},
		{half, 2},
		{2, half},
		{math.MaxInt, math.MaxInt},
		{1 << 32, 1 << 32}, // wraps to exactly 0 on 64-bit int
		{-1, 3},
		{3, -1},
	}
	for _, s := range bad {
		rows, cols := s[0], s[1]
		if v, ok := panicValue(func() { NewMatrix(rows, cols) }).(*ShapeError); !ok {
			t.Errorf("NewMatrix(%d, %d): panicked with %v, want *ShapeError", rows, cols, v)
		}
		if v, ok := panicValue(func() { NewMatrix32(rows, cols) }).(*ShapeError); !ok {
			t.Errorf("NewMatrix32(%d, %d): panicked with %v, want *ShapeError", rows, cols, v)
		}
		var se *ShapeError
		if _, err := Matrix32Of(rows, cols, nil); !errors.As(err, &se) {
			t.Errorf("Matrix32Of(%d, %d): got %v, want *ShapeError", rows, cols, err)
		}
	}
}

// TestConstructorBoundaryShapes confirms the guard does not over-reject:
// zero-sized and ordinary shapes still construct.
func TestConstructorBoundaryShapes(t *testing.T) {
	ok := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {3, 4}, {1, math.MaxInt}, {math.MaxInt, 0}}
	for _, s := range ok {
		rows, cols := s[0], s[1]
		if rows*cols > 1<<20 { // shapes that are valid but too big to allocate
			continue
		}
		if m := NewMatrix(rows, cols); m.Rows != rows || m.Cols != cols || len(m.Data) != rows*cols {
			t.Errorf("NewMatrix(%d, %d): %dx%d with %d elements", rows, cols, m.Rows, m.Cols, len(m.Data))
		}
		if m := NewMatrix32(rows, cols); len(m.Data) != rows*cols {
			t.Errorf("NewMatrix32(%d, %d): %d elements", rows, cols, len(m.Data))
		}
	}
	// 1 x MaxInt passes the overflow guard (no wrap) — it must fail only
	// at allocation, which we do not attempt here. Matrix32Of
	// with a mismatched data length must still reject cleanly.
	var se *ShapeError
	if _, err := Matrix32Of(2, 3, make([]float32, 5)); !errors.As(err, &se) {
		t.Errorf("Matrix32Of length mismatch: got %v, want *ShapeError", err)
	}
	if m, err := Matrix32Of(2, 2, []float32{1, 2, 3, 4}); err != nil || m.At(1, 1) != 4 {
		t.Errorf("Matrix32Of valid: %v", err)
	}
}
