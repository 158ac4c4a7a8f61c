package vec

import "testing"

// panicValue runs f and returns what it panicked with (nil if it
// returned).
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestMatrixEdgeShapes: zero-sized shapes are valid, negative shapes
// panic with a *ShapeError carrying the offending pair.
func TestMatrixEdgeShapes(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		wantErr    bool
	}{
		{"0xN", 0, 5, false},
		{"Nx0", 5, 0, false},
		{"0x0", 0, 0, false},
		{"neg-rows", -1, 4, true},
		{"neg-cols", 4, -1, true},
		{"neg-both", -2, -3, true},
		{"normal", 3, 4, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.wantErr {
				for name, f := range map[string]func(){
					"NewMatrix":   func() { NewMatrix(c.rows, c.cols) },
					"NewMatrix32": func() { NewMatrix32(c.rows, c.cols) },
				} {
					se, ok := panicValue(f).(*ShapeError)
					if !ok {
						t.Fatalf("%s(%d,%d) did not panic with *ShapeError", name, c.rows, c.cols)
					}
					if se.Rows != c.rows || se.Cols != c.cols {
						t.Errorf("ShapeError carries %dx%d, want %dx%d", se.Rows, se.Cols, c.rows, c.cols)
					}
				}
				return
			}
			m64, m32 := NewMatrix(c.rows, c.cols), NewMatrix32(c.rows, c.cols)
			if m64.Rows != c.rows || m64.Cols != c.cols || len(m64.Data) != c.rows*c.cols {
				t.Errorf("Matrix shape %dx%d data %d", m64.Rows, m64.Cols, len(m64.Data))
			}
			if m32.Rows != c.rows || m32.Cols != c.cols || len(m32.Data) != c.rows*c.cols {
				t.Errorf("Matrix32 shape %dx%d data %d", m32.Rows, m32.Cols, len(m32.Data))
			}
			// Row access on a 0xN matrix must fail cleanly, not slice-fault.
			if c.rows == 0 {
				if _, ok := panicValue(func() { m64.Row(0) }).(*IndexError); !ok {
					t.Error("Row(0) on an empty matrix did not panic with *IndexError")
				}
				if _, ok := panicValue(func() { m32.Row(0) }).(*IndexError); !ok {
					t.Error("Matrix32.Row(0) on an empty matrix did not panic with *IndexError")
				}
			}
		})
	}
}

// TestMatrixTypedAccessErrors: Row panics with an *IndexError that says
// which row of which shape was asked for.
func TestMatrixTypedAccessErrors(t *testing.T) {
	m64 := NewMatrix(2, 3)
	m32 := NewMatrix32(2, 3)
	for _, i := range []int{-1, 2, 100} {
		for name, f := range map[string]func(){
			"Matrix.Row":   func() { m64.Row(i) },
			"Matrix32.Row": func() { m32.Row(i) },
		} {
			ie, ok := panicValue(f).(*IndexError)
			if !ok {
				t.Errorf("%s(%d) did not panic with *IndexError", name, i)
			} else if ie.I != i || ie.J != -1 || ie.Rows != 2 || ie.Cols != 3 {
				t.Errorf("%s(%d): %v lacks index context", name, i, ie)
			}
		}
	}
	if panicValue(func() { m64.Row(1); m32.Row(0) }) != nil {
		t.Error("Row in range panicked")
	}
}

func TestMatrix32AppendRowAndConvert(t *testing.T) {
	m := NewMatrix32(0, 3)
	m.AppendRow([]float32{1, 2, 3})
	m.AppendRow([]float32{4, 5, 6})
	if m.Rows != 2 || m.Row(1)[2] != 6 {
		t.Fatalf("AppendRow built %dx%d with [1][2]=%v", m.Rows, m.Cols, m.Row(1)[2])
	}
	if _, ok := panicValue(func() { m.AppendRow([]float32{1}) }).(*ShapeError); !ok {
		t.Error("AppendRow with wrong width did not panic with *ShapeError")
	}

	// Matrix32Of wraps the data it is given, shape-checked.
	back, err := Matrix32Of(m.Rows, m.Cols, m.Data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != 2 || back.Cols != 3 || &back.Data[0] != &m.Data[0] {
		t.Fatalf("Matrix32Of built %dx%d, sharing=%v", back.Rows, back.Cols, &back.Data[0] == &m.Data[0])
	}
	if _, err := Matrix32Of(2, 2, []float32{1}); err == nil {
		t.Error("Matrix32Of with short data returned nil error")
	}
	if _, err := Matrix32Of(-1, 2, nil); err == nil {
		t.Error("Matrix32Of with negative rows returned nil error")
	}
}
