package vec

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix. Rows are addressable as
// Vectors that share storage with the matrix, which is what the trainer's
// optimiser state relies on to update rows in place.
//
// The accessors (Row, At, Set) are panicking-fast — the trainer calls
// them per touched row per step and its indices are loop-derived, so a
// failure there is a programming error. Row and the constructors panic
// with typed values (*IndexError, *ShapeError).
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix of the given shape. It panics with a
// *ShapeError when rows or cols is negative or when rows*cols overflows
// int (a wrapped product would silently allocate the wrong size for a
// huge declared shape). Zero-sized shapes (0xN, Nx0) are valid and yield
// an empty Data slice.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 || elemsOverflow(rows, cols) {
		panic(&ShapeError{Op: "NewMatrix", Rows: rows, Cols: cols})
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a Vector sharing storage with m. It panics with a
// *IndexError when i is out of range.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.Rows {
		panic(&IndexError{Op: "Row", I: i, J: -1, Rows: m.Rows, Cols: m.Cols})
	}
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// At returns the element at (i, j). Unchecked for speed: out-of-range
// indices fault on the backing slice.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j). Unchecked for speed.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// FillGaussian fills m with N(0, sigma²) samples from rng.
func (m *Matrix) FillGaussian(rng *rand.Rand, sigma float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * sigma
	}
}

// MulVec computes y = m * x for a column vector x of length Cols,
// returning a new vector of length Rows.
func (m *Matrix) MulVec(x Vector) Vector {
	if x.Dim() != m.Cols {
		panic(fmt.Sprintf("vec: mulvec dim %d != cols %d", x.Dim(), m.Cols))
	}
	y := New(m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = m.Row(i).Dot(x)
	}
	return y
}
