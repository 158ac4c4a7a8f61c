package vec

// Matrix is a dense row-major float64 matrix. Rows are addressable as
// Vectors that share storage with the matrix, which is what the trainer's
// optimiser state relies on to update rows in place.
//
// Row is panicking-fast — the trainer calls it per touched row per step
// and its indices are loop-derived, so a failure there is a programming
// error. Row and the constructors panic with typed values (*IndexError,
// *ShapeError).
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
