package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Reference implementations.
//
// laneDot32 / laneL2Sq32 re-implement the kernels' DOCUMENTED four-lane
// accumulation order with plain nested loops — the conformance contract is
// bit-equality against these for every length, so the unrolled bodies can
// never silently change results. naiveDot32 / naiveL2Sq32 are the
// straight sequential sums; kernels must agree with them to within float32
// accumulation reordering (checked via a float64 shadow bound).
// ---------------------------------------------------------------------------

func laneDot32(a, b []float32) float32 {
	var s [4]float32
	n := len(a)
	i := 0
	for ; i+8 <= n; i += 8 {
		for l := 0; l < 4; l++ {
			s[l] += a[i+l]*b[i+l] + a[i+l+4]*b[i+l+4]
		}
	}
	if i+4 <= n {
		for l := 0; l < 4; l++ {
			s[l] += a[i+l] * b[i+l]
		}
		i += 4
	}
	for ; i < n; i++ {
		s[0] += a[i] * b[i]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

func laneL2Sq32(a, b []float32) float32 {
	var s [4]float32
	n := len(a)
	i := 0
	for ; i+8 <= n; i += 8 {
		for l := 0; l < 4; l++ {
			d0 := a[i+l] - b[i+l]
			d4 := a[i+l+4] - b[i+l+4]
			s[l] += d0*d0 + d4*d4
		}
	}
	if i+4 <= n {
		for l := 0; l < 4; l++ {
			d := a[i+l] - b[i+l]
			s[l] += d * d
		}
		i += 4
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s[0] += d * d
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

func naiveDot32(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func naiveL2Sq32(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// shadowDot64 computes the dot in float64, the "true" value accumulation
// reorderings must stay near.
func shadowDot64(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func randSlice32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// bitsEq compares float32s bitwise, treating any two NaNs as equal (NaN
// payload bits are platform noise, not semantics).
func bitsEq(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestKernelConformanceAllLengths is the core conformance sweep: every
// kernel against its order-exact lane reference, bit for bit, across
// lengths 0..67 — covering the empty case, pure-tail lengths, the 4-wide
// mid block, and every 8-wide remainder class at least four times.
func TestKernelConformanceAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			a := randSlice32(rng, n)
			b := randSlice32(rng, n)

			if got, want := Dot32(a, b), laneDot32(a, b); !bitsEq(got, want) {
				t.Fatalf("Dot32 len=%d trial=%d: kernel %x, lane reference %x",
					n, trial, math.Float32bits(got), math.Float32bits(want))
			}
			if got, want := L2Sq32(a, b), laneL2Sq32(a, b); !bitsEq(got, want) {
				t.Fatalf("L2Sq32 len=%d trial=%d: kernel %x, lane reference %x",
					n, trial, math.Float32bits(got), math.Float32bits(want))
			}
			if got, want := l2Sq32Go(a, b), laneL2Sq32(a, b); !bitsEq(got, want) {
				t.Fatalf("l2Sq32Go len=%d trial=%d: portable %x, lane reference %x",
					n, trial, math.Float32bits(got), math.Float32bits(want))
			}

			// Axpy32 is element-wise: bit-exact against the naive loop.
			alpha := float32(rng.NormFloat64())
			gotDst := append([]float32(nil), a...)
			wantDst := append([]float32(nil), a...)
			Axpy32(gotDst, alpha, b)
			for i := range wantDst {
				wantDst[i] += alpha * b[i]
			}
			for i := range gotDst {
				if !bitsEq(gotDst[i], wantDst[i]) {
					t.Fatalf("Axpy32 len=%d trial=%d elem=%d: kernel %x, naive %x",
						n, trial, i, math.Float32bits(gotDst[i]), math.Float32bits(wantDst[i]))
				}
			}

			// axpyInto64 likewise, in float64.
			alpha64 := rng.NormFloat64()
			got64 := make([]float64, n)
			want64 := make([]float64, n)
			axpyInto64(got64, alpha64, b)
			for i := range want64 {
				want64[i] += alpha64 * float64(b[i])
			}
			for i := range got64 {
				if math.Float64bits(got64[i]) != math.Float64bits(want64[i]) {
					t.Fatalf("axpyInto64 len=%d trial=%d elem=%d: kernel %x, naive %x",
						n, trial, i, math.Float64bits(got64[i]), math.Float64bits(want64[i]))
				}
			}
		}

		// L2SqRows32 over 0..9 rows of this width, the block starting 0..3
		// floats into its buffer (unaligned loads) and ending at its end.
		for rows := 0; rows <= 9; rows++ {
			for off := 0; off <= 3; off++ {
				buf := randSlice32(rng, off+rows*n)
				if err := checkRows(buf[off:], randSlice32(rng, n), rows); err != "" {
					t.Fatalf("dim=%d rows=%d offset=%d: %s", n, rows, off, err)
				}
			}
		}
	}
}

// checkRows holds three bodies to laneL2Sq32 row by row, bit for bit,
// over a block of n rows of len(q) floats: L2SqRows32 (on amd64 with
// AVX2 and a width a multiple of 8, two rows per register and an odd
// last row on SSE2), l2SqRows32 called directly (the SSE2 body on amd64)
// and the portable body. It returns "" or what differed.
func checkRows(block, q []float32, n int) string {
	got, direct, portable := make([]float32, n), make([]float32, n), make([]float32, n)
	L2SqRows32(got, block, q)
	l2SqRows32(direct, block, q)
	l2SqRows32Go(portable, block, q)
	for r := range got {
		want := laneL2Sq32(block[r*len(q):(r+1)*len(q)], q)
		if !bitsEq(got[r], want) || !bitsEq(direct[r], want) || !bitsEq(portable[r], want) {
			return fmt.Sprintf("row %d of %d: kernel %x, direct %x, portable %x, lane reference %x", r, n,
				math.Float32bits(got[r]), math.Float32bits(direct[r]), math.Float32bits(portable[r]), math.Float32bits(want))
		}
	}
	return ""
}

// TestKernelNearNaiveAccumulation bounds the reordering drift: kernel and
// naive sequential sums must both sit within a small multiple of the
// float64 shadow value's rounding envelope. This is the "within 1 ULP
// accumulation order" clause made operational — the kernels differ from
// the naive loop only by summation order, never by magnitude.
func TestKernelNearNaiveAccumulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 4; trial++ {
			a := randSlice32(rng, n)
			b := randSlice32(rng, n)
			shadow := shadowDot64(a, b)
			// Each float32 add/mul rounds at 2^-24 relative; n terms give a
			// linear envelope around the true value.
			var mag float64
			for i := range a {
				mag += math.Abs(float64(a[i]) * float64(b[i]))
			}
			tol := float64(n+2) * mag / (1 << 24)
			if d := math.Abs(float64(Dot32(a, b)) - shadow); d > tol {
				t.Fatalf("Dot32 len=%d: |kernel-shadow| = %g > %g", n, d, tol)
			}
			if d := math.Abs(float64(naiveDot32(a, b)) - shadow); d > tol {
				t.Fatalf("naive len=%d: |naive-shadow| = %g > %g", n, d, tol)
			}
			if d := math.Abs(float64(naiveL2Sq32(a, b)) - float64(L2Sq32(a, b))); d > 4*tol {
				t.Fatalf("L2Sq32 len=%d: naive vs kernel drift %g > %g", n, d, 4*tol)
			}
		}
	}
}

// TestKernelSpecialValues feeds NaN, ±Inf and denormal inputs through the
// kernels: results must match the lane reference bitwise (NaNs compare
// equal as a class), i.e. special values propagate exactly as the
// documented accumulation order dictates — never silently flushed.
func TestKernelSpecialValues(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	den := math.Float32frombits(1)             // smallest positive denormal
	denBig := math.Float32frombits(0x007fffff) // largest denormal

	cases := []struct {
		name string
		a, b []float32
	}{
		{"nan-front", []float32{nan, 1, 2, 3, 4, 5, 6, 7, 8}, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"nan-tail", []float32{1, 2, 3, 4, 5, 6, 7, 8, nan}, []float32{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"posinf", []float32{inf, 1, 2}, []float32{1, 1, 1}},
		{"neginf", []float32{float32(math.Inf(-1)), 1, 2, 3, 4}, []float32{2, 1, 1, 1, 1}},
		{"inf-cancel", []float32{inf, inf}, []float32{1, -1}}, // Inf + (-Inf) → NaN
		{"denormal", []float32{den, denBig, den, den, den, den, den, den, den, den}, []float32{den, den, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"denormal-mix", []float32{denBig, 1e-30, denBig, 1}, []float32{denBig, denBig, 1, denBig}},
	}
	for _, c := range cases {
		if got, want := Dot32(c.a, c.b), laneDot32(c.a, c.b); !bitsEq(got, want) {
			t.Errorf("%s: Dot32 %x, lane reference %x", c.name, math.Float32bits(got), math.Float32bits(want))
		}
		if got, want := L2Sq32(c.a, c.b), laneL2Sq32(c.a, c.b); !bitsEq(got, want) {
			t.Errorf("%s: L2Sq32 %x, lane reference %x", c.name, math.Float32bits(got), math.Float32bits(want))
		}
	}

	// NaN anywhere must surface as NaN in the reduction, whatever the lane.
	for pos := 0; pos < 17; pos++ {
		a := make([]float32, 17)
		b := make([]float32, 17)
		for i := range a {
			a[i], b[i] = 1, 1
		}
		a[pos] = nan
		if !math.IsNaN(float64(Dot32(a, b))) {
			t.Errorf("Dot32 lost NaN at position %d", pos)
		}
		if !math.IsNaN(float64(L2Sq32(a, b))) {
			t.Errorf("L2Sq32 lost NaN at position %d", pos)
		}
	}
}

// TestKernelKnownValues pins simple closed-form results.
func TestKernelKnownValues(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, -5, 6}
	if got := Dot32(a, b); got != 12 {
		t.Errorf("Dot32 = %v, want 12", got)
	}
	if got := L2Sq32([]float32{0, 0}, []float32{3, 4}); got != 25 {
		t.Errorf("L2Sq32 = %v, want 25", got)
	}
	if got := L232([]float32{0, 0}, []float32{3, 4}); got != 5 {
		t.Errorf("L232 = %v, want 5", got)
	}
	if got := Norm32([]float32{3, 4}); got != 5 {
		t.Errorf("Norm32 = %v, want 5", got)
	}
}

// TestKernelDimMismatchPanics pins the panic contract of every kernel.
func TestKernelDimMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"Dot32":   func() { Dot32([]float32{1}, []float32{1, 2}) },
		"L2Sq32":  func() { L2Sq32([]float32{1, 2}, []float32{1}) },
		"Axpy32":  func() { Axpy32([]float32{1}, 1, []float32{1, 2}) },
		"DotInt8": func() { DotInt8([]int8{1}, []int8{1, 2}) },
		// A destination of another width, a weight count other than the
		// token count, and tokens outside the table.
		"PoolRows64 width":     func() { PoolRows64(make([]float64, 1), NewMatrix32(3, 2), []int32{0}, []float64{1}) },
		"PoolRows64 weights":   func() { PoolRows64(make([]float64, 2), NewMatrix32(3, 2), []int32{0}, nil) },
		"PoolRows64 negative":  func() { PoolRows64(make([]float64, 2), NewMatrix32(3, 2), []int32{-1}, []float64{1}) },
		"PoolRows64 past end":  func() { PoolRows64(make([]float64, 2), NewMatrix32(3, 2), []int32{0, 3}, []float64{1, 1}) },
		"PoolRows64 int32 max": func() { PoolRows64(make([]float64, 2), NewMatrix32(3, 2), []int32{math.MaxInt32}, []float64{1}) },
		// The in-place float64 ops, with w longer and shorter than v.
		"Add long":   func() { Vector{1}.Add(Vector{1, 2}) },
		"Add short":  func() { Vector{1, 2}.Add(Vector{1}) },
		"Sub long":   func() { Vector{1}.Sub(Vector{1, 2}) },
		"Sub short":  func() { Vector{1, 2}.Sub(Vector{1}) },
		"Axpy long":  func() { Vector{1}.Axpy(1, Vector{1, 2}) },
		"Axpy short": func() { Vector{1, 2}.Axpy(1, Vector{1}) },
		"AdamRow g":  func() { AdamRow(make([]float32, 2), New(2), New(2), New(3), &AdamCoef{}) },
		"AdamRow m":  func() { AdamRow(make([]float32, 2), New(1), New(2), New(2), &AdamCoef{}) },
		// One float short, one over, and rows for a dim-0 query.
		"L2SqRows32 short": func() { L2SqRows32(make([]float32, 2), make([]float32, 5), make([]float32, 3)) },
		"L2SqRows32 long":  func() { L2SqRows32(make([]float32, 2), make([]float32, 7), make([]float32, 3)) },
		"L2SqRows32 dim 0": func() { L2SqRows32(make([]float32, 2), make([]float32, 1), nil) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				switch v := recover(); {
				case v == nil:
					t.Errorf("%s on mismatched dims did not panic", name)
				case strings.HasPrefix(name, "L2Sq") || strings.HasPrefix(name, "AdamRow") || strings.HasPrefix(name, "PoolRows64"):
					if _, ok := v.(*ShapeError); !ok {
						t.Errorf("%s panicked with %T, want *ShapeError", name, v)
					}
				default:
					_, typed := v.(*ShapeError)
					if s, _ := v.(string); !typed && !strings.Contains(s, "mismatched dims") {
						t.Errorf("%s panicked with %v, want a mismatched-dims message", name, v)
					}
				}
			}()
			f()
		}()
	}
}

// TestVec32MirrorsVector checks the Vec32 convenience methods against
// their float64 counterparts' semantics.
func TestVec32MirrorsVector(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v32 := Vec32(randSlice32(rng, 13))

	n := slices.Clone(v32).Normalize()
	if math.Abs(n.Norm()-1) > 1e-6 {
		t.Errorf("normalized norm = %v, want 1", n.Norm())
	}
	z := New32(4)
	z.Normalize()
	for _, x := range z {
		if x != 0 {
			t.Error("zero-vector Normalize changed components")
		}
	}

	m := Mean32([]Vec32{{1, 5}, {3, 1}})
	if m[0] != 2 || m[1] != 3 {
		t.Errorf("Mean32 = %v, want [2 3]", m)
	}
}

// TestPoolRows32MatchesAxpy holds PoolRows32 to Axpy32 of each token's row
// in turn into a zeroed vector, Float32bits-equal: at every width from 1
// to 72 — on amd64 with AVX2 the 8-float passes alone (8..56), the
// 64-float pass (64) and both (72), the Go body elsewhere — for 0 to 600
// tokens with repeats and the table's last row, the weights of
// poolWeights64 among normal ones, and rows that hold ±0 and ±Inf.
func TestPoolRows32MatchesAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const rows = 50
	for dim := 1; dim <= 72; dim++ {
		table := poolTable(rng, rows, dim)
		for _, n := range []int{0, 1, 2, 3, 5, 68, 600} {
			toks := make([]int32, n)
			ws := make([]float64, n)
			for i := range toks {
				toks[i] = int32(rng.Intn(rows))
				ws[i] = rng.NormFloat64() / 10
				if rng.Intn(4) == 0 {
					ws[i] = poolWeights64[rng.Intn(len(poolWeights64))]
				}
			}
			if n > 2 {
				toks[n-1] = rows - 1
				toks[1] = toks[0]
			}
			got, want := make([]float32, dim), make([]float32, dim)
			for j := range got {
				got[j] = float32(math.NaN()) // PoolRows32 sets, not adds
			}
			PoolRows32(got, table, toks, ws)
			for i, tok := range toks {
				Axpy32(want, float32(ws[i]), table.Row(int(tok)))
			}
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("dim %d, %d tokens, elem %d: %x, want %x", dim, n, j,
						math.Float32bits(got[j]), math.Float32bits(want[j]))
				}
			}
		}
	}
}
