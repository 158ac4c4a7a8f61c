package vec

// Matrix32 is a dense row-major float32 matrix backed by one contiguous
// allocation — no per-row slice headers, no pointer chasing. It is the
// storage type of the PG-Index embedding block and the encoder's token
// table: row views share the backing array, so handing a row to a caller
// costs nothing, and a full-matrix scan walks memory linearly.
//
// Like Matrix, Row and the constructors panic on misuse.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zero matrix of the given shape. It panics with a
// *ShapeError on a negative dimension or when rows*cols overflows int
// (huge declared shapes would otherwise wrap before make and allocate
// the wrong size). Zero-sized shapes (0xN, Nx0) are valid.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 || elemsOverflow(rows, cols) {
		panic(&ShapeError{Op: "NewMatrix32", Rows: rows, Cols: cols})
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a Vec32 sharing storage with m, its capacity
// clipped to the row: an append to it reallocates instead of running into
// row i+1 (or a read-only mapping). It panics with a *IndexError when i is
// out of range.
func (m *Matrix32) Row(i int) Vec32 {
	if i < 0 || i >= m.Rows {
		panic(&IndexError{Op: "Row", I: i, J: -1, Rows: m.Rows, Cols: m.Cols})
	}
	return Vec32(m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols])
}

// AppendRow grows the matrix by one row, copying v. Existing row views
// keep pointing at the previous backing array if growth reallocates; rows
// are treated as immutable by every user of Matrix32, so stale views stay
// value-correct.
func (m *Matrix32) AppendRow(v []float32) {
	if len(v) != m.Cols {
		panic(&ShapeError{Op: "AppendRow", Rows: 1, Cols: len(v)})
	}
	m.Data = append(m.Data, v...)
	m.Rows++
}

// Matrix32Of wraps row-major data as a rows x cols matrix without copying
// it. It returns a *ShapeError when the data length does not match
// rows*cols (including shapes whose product overflows int and would wrap
// onto len(data)): this is the constructor for shapes read from a file.
func Matrix32Of(rows, cols int, data []float32) (*Matrix32, error) {
	if rows < 0 || cols < 0 || elemsOverflow(rows, cols) || len(data) != rows*cols {
		return nil, &ShapeError{Op: "Matrix32Of", Rows: rows, Cols: cols}
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: data}, nil
}
