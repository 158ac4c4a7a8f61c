package vec

import (
	"fmt"
	"math"
)

// elemsOverflow reports whether rows*cols overflows int for
// non-negative inputs — such a product would wrap before make and
// allocate a matrix far smaller than its declared shape.
func elemsOverflow(rows, cols int) bool {
	return cols != 0 && rows > math.MaxInt/cols
}

// ShapeError reports an invalid or mismatched matrix/vector shape: a
// negative or overflowing dimension in a constructor, or mismatched
// lengths in a kernel. NewMatrix, NewMatrix32 and AppendRow panic with
// it; Matrix32Of, which takes shapes from snapshot files, returns it.
type ShapeError struct {
	Op         string // operation that rejected the shape
	Rows, Cols int    // the offending pair (rows x cols, or the two lengths; -1 -1 from L2Sq32)
}

func (e *ShapeError) Error() string {
	return fmt.Sprintf("vec: %s: invalid shape %dx%d", e.Op, e.Rows, e.Cols)
}

// IndexError reports an out-of-range row access on a matrix: it is the
// panic value of Matrix.Row and Matrix32.Row.
type IndexError struct {
	Op         string // accessor that rejected the index
	I, J       int    // requested row and column (J is -1 for row access)
	Rows, Cols int    // matrix shape
}

func (e *IndexError) Error() string {
	if e.J < 0 {
		return fmt.Sprintf("vec: %s: row %d out of range for %dx%d matrix", e.Op, e.I, e.Rows, e.Cols)
	}
	return fmt.Sprintf("vec: %s: element (%d,%d) out of range for %dx%d matrix", e.Op, e.I, e.J, e.Rows, e.Cols)
}
