package vec

// This file holds what only the frozen benchmark still calls:
// bench/layers.go times DotInt8 over the rows of a Quantize'd matrix for its
// vec.dot_i8_ns_d64 row (ROADMAP item 1(a) deletes that row and this file
// together). It was the int8 shadow of the PG-Index's embedding matrix —
// traversal candidates scored against codes, the pool re-ranked with the
// float32 kernels — which lost to the plain float32 traversal on every
// workload that measured it (DESIGN.md, "One distance")
// and left the index; nothing under internal/ or cmd/ reads any of this.
//
// Int8 scalar quantization: each row of a Matrix32 is coded independently
// as 127 levels of a symmetric per-row scale (code = round(x/scale),
// scale = maxAbs/127).
//
// The error contract, asserted by the property and fuzz suites: the scale
// is either 0 (zero, non-finite, or vanishingly small rows — all coded as
// zero) or a NORMAL float32, and for a nonzero scale
//
//	|x - code*scale| <= scale · (1/2 + 2^-10)   per component
//
// (round-to-nearest half-step plus the rounding of scale and of the
// reciprocal used to divide by it; normality of the scale keeps those
// relative, which is why subnormal scales are flushed to the zero case).
// The int32 dot accumulation is exact: |code| <= 127, so a product is at
// most 16129 and 2^31/16129 ≈ 133k components fit without overflow — far
// beyond any embedding dimensionality here.

// Quantized holds the int8 codes of a row-major matrix plus the per-row
// dequantization state.
type Quantized struct {
	Rows, Cols int
	Codes      []int8    // row-major, Rows x Cols
	Scales     []float32 // per-row dequantization scale
	SqNorms    []float32 // per-row squared L2 norm of the dequantized row
}

// Quantize codes every row of m. Rows containing NaN or Inf get scale 0
// and all-zero codes.
func Quantize(m *Matrix32) *Quantized {
	q := &Quantized{
		Rows:    m.Rows,
		Cols:    m.Cols,
		Codes:   make([]int8, m.Rows*m.Cols),
		Scales:  make([]float32, m.Rows),
		SqNorms: make([]float32, m.Rows),
	}
	for i := 0; i < m.Rows; i++ {
		q.Scales[i], q.SqNorms[i] = QuantizeRow(q.Codes[i*m.Cols:(i+1)*m.Cols], m.Row(i))
	}
	return q
}

// QuantizeRow codes v into codes (len(codes) must equal len(v)) and
// returns the scale and the squared norm of the dequantized row. A zero
// or non-finite row yields scale 0 and zero codes.
func QuantizeRow(codes []int8, v []float32) (scale, sqNorm float32) {
	if len(codes) != len(v) {
		panic(&ShapeError{Op: "QuantizeRow", Rows: len(codes), Cols: len(v)})
	}
	var maxAbs float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || !IsFinite32(v) {
		for i := range codes {
			codes[i] = 0
		}
		return 0, 0
	}
	const minNormal32 = 0x1p-126
	scale = maxAbs / 127
	if scale < minNormal32 {
		// A subnormal scale rounds with absolute, not relative, error and
		// would void the error contract; every component is below ~1.5e-36,
		// indistinguishable from zero for ranking purposes.
		for i := range codes {
			codes[i] = 0
		}
		return 0, 0
	}
	// maxAbs >= 127·2^-126 here, so the reciprocal cannot overflow.
	inv := 127 / maxAbs
	for i, x := range v {
		codes[i] = roundToInt8(x * inv)
	}
	// The dequantized squared norm via the exact int32 self-dot: codes are
	// small integers, so Σ c² is exact and one float multiply rounds it.
	sqNorm = scale * scale * float32(DotInt8(codes, codes))
	return scale, sqNorm
}

// roundToInt8 rounds to nearest (half away from zero, matching
// math.Round) and clamps to [-127, 127].
func roundToInt8(x float32) int8 {
	var r float32
	if x >= 0 {
		r = x + 0.5
	} else {
		r = x - 0.5
	}
	i := int32(r) // truncation after the half-offset = round half away from zero
	if i > 127 {
		i = 127
	}
	if i < -127 {
		i = -127
	}
	return int8(i)
}

// DotInt8 returns the exact int32 inner product of two code rows, with
// the same four-lane unrolling as Dot32 (integer addition is associative,
// so order is irrelevant here; the shape is kept for throughput).
// It panics if lengths differ.
func DotInt8(a, b []int8) int32 {
	n := len(a)
	if len(b) != n {
		panic(&ShapeError{Op: "DotInt8", Rows: n, Cols: len(b)})
	}
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+8 <= n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += int32(aa[0])*int32(bb[0]) + int32(aa[4])*int32(bb[4])
		s1 += int32(aa[1])*int32(bb[1]) + int32(aa[5])*int32(bb[5])
		s2 += int32(aa[2])*int32(bb[2]) + int32(aa[6])*int32(bb[6])
		s3 += int32(aa[3])*int32(bb[3]) + int32(aa[7])*int32(bb[7])
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Row returns row i's codes, sharing storage with q.
func (q *Quantized) Row(i int) []int8 {
	if i < 0 || i >= q.Rows {
		panic(&IndexError{Op: "Row", I: i, J: -1, Rows: q.Rows, Cols: q.Cols})
	}
	return q.Codes[i*q.Cols : (i+1)*q.Cols]
}
