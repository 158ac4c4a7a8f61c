package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// bytesToFloat32s reinterprets fuzz bytes as a float32 slice, little
// endian — every bit pattern is a legal input, including NaN payloads,
// infinities and denormals.
func bytesToFloat32s(b []byte) []float32 {
	v := make([]float32, len(b)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return v
}

// FuzzDotKernels checks that Dot32, L2Sq32 and L2SqRows32 agree bit for
// bit with the lane-order reference on arbitrary inputs — the conformance
// sweep's contract, extended to adversarial bit patterns.
func FuzzDotKernels(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64}, []byte{0, 0, 64, 64, 0, 0, 128, 64})
	seed := make([]byte, 67*4)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, seed)
	// Distinct finite values, one row of 67 and thirteen of 5, so that a
	// lane-order slip in any step changes bits without the fuzzer's help.
	a, b := make([]byte, 67*4), make([]byte, 67*4)
	for i := 0; i < 67; i++ {
		binary.LittleEndian.PutUint32(a[i*4:], math.Float32bits(float32(math.Sqrt(float64(i+2)))))
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(i)/3))
	}
	f.Add(a, b)
	f.Add(a, b[:5*4])
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a := bytesToFloat32s(ab)
		b := bytesToFloat32s(bb)
		// The rows kernel over every whole row of width len(b) that fits
		// in a, the block ending at a's last float (so starting 0 to
		// len(b)-1 floats into it), with b as the query.
		rows := len(a) % 10
		if len(b) > 0 {
			rows = len(a) / len(b)
		}
		if err := checkRows(a[len(a)-rows*len(b):], b, rows); err != "" {
			t.Fatalf("L2SqRows32 dim=%d: %s", len(b), err)
		}

		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]

		if got, want := Dot32(a, b), laneDot32(a, b); !bitsEq(got, want) {
			t.Fatalf("Dot32 len=%d: kernel %x, lane reference %x", n,
				math.Float32bits(got), math.Float32bits(want))
		}
		if got, want := L2Sq32(a, b), laneL2Sq32(a, b); !bitsEq(got, want) {
			t.Fatalf("L2Sq32 len=%d: kernel %x, lane reference %x", n,
				math.Float32bits(got), math.Float32bits(want))
		}
		// When everything is finite, the kernel must also sit inside the
		// float64 shadow envelope (the 1-ULP-per-term accumulation bound).
		if IsFinite32(a) && IsFinite32(b) {
			shadow := shadowDot64(a, b)
			var mag float64
			for i := range a {
				mag += math.Abs(float64(a[i]) * float64(b[i]))
			}
			if !math.IsInf(mag, 0) {
				// Relative envelope plus an absolute floor for products that
				// round in the subnormal range (spacing 2^-149).
				tol := float64(n+2) * (mag/(1<<24) + 0x1p-149)
				got := float64(Dot32(a, b))
				if !math.IsInf(got, 0) && math.Abs(got-shadow) > tol {
					t.Fatalf("Dot32 len=%d drift %g > %g", n, math.Abs(got-shadow), tol)
				}
			}
		}
	})
}

// FuzzQuantizeRoundTrip checks the quantization error contract on
// arbitrary rows: zero codes for zero/non-finite/underflowing rows,
// otherwise |x - code*scale| <= scale/2·(1+ε) per component.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63})
	f.Add([]byte{1, 0, 0, 0, 255, 255, 127, 127}) // denormal next to MaxFloat32
	f.Add([]byte{0, 0, 192, 255})                 // NaN
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := bytesToFloat32s(raw)
		codes := make([]int8, len(v))
		scale, sqNorm := QuantizeRow(codes, v)

		if !IsFinite32(v) {
			if scale != 0 || sqNorm != 0 {
				t.Fatalf("non-finite row: scale %v sqNorm %v, want 0 0", scale, sqNorm)
			}
			for i, c := range codes {
				if c != 0 {
					t.Fatalf("non-finite row: code[%d] = %d", i, c)
				}
			}
			return
		}
		if scale == 0 {
			// Zero row, or maxAbs small enough that the scale would be
			// subnormal: all codes must be zero and every component below
			// the flush threshold 127·2^-126 ≈ 1.5e-36.
			for i, c := range codes {
				if c != 0 {
					t.Fatalf("scale 0: code[%d] = %d", i, c)
				}
				if a := math.Abs(float64(v[i])); a > 127*0x1p-126*(1+1e-6) {
					t.Fatalf("scale 0 but |v[%d]| = %g above flush range", i, a)
				}
			}
			return
		}
		if float64(scale) < 0x1p-126 {
			t.Fatalf("nonzero scale %g is subnormal", scale)
		}
		bound := float64(scale) * (0.5 + 1.0/1024)
		for i, x := range v {
			deq := float64(codes[i]) * float64(scale)
			if err := math.Abs(float64(x) - deq); err > bound {
				t.Fatalf("component %d: |%g - %g| = %g > %g (scale %g)", i, x, deq, err, bound, scale)
			}
			if codes[i] > 127 || codes[i] < -127 {
				t.Fatalf("code[%d] = %d outside ±127", i, codes[i])
			}
		}
	})
}

// FuzzPoolRows64 holds PoolRows64 to its Go body on arbitrary tables,
// tokens and weights: the table is rowBytes read as float32s in rows of
// one of the widths TestPoolRows64MatchesGoBody covers, each token byte
// picks a row, and each token's weight is the next eight bytes of
// wBytes, little endian. Any two NaNs compare equal, as in diff64.
func FuzzPoolRows64(f *testing.F) {
	le := binary.LittleEndian
	row := make([]byte, 128*4)
	for i := 0; i < 128; i++ {
		v := float32(i) / 7
		switch i % 9 {
		case 0:
			v = float32(math.Inf(1))
		case 1:
			v = float32(math.Inf(-1))
		case 2:
			v = float32(math.Copysign(0, -1))
		}
		le.PutUint32(row[i*4:], math.Float32bits(v))
	}
	var ws []byte
	for _, w := range append([]float64{0.5, -3}, poolWeights64...) {
		ws = le.AppendUint64(ws, math.Float64bits(w))
	}
	f.Add(row, []byte{}, ws, uint8(1))
	f.Add(row, []byte{0, 1, 2, 3, 3, 0, 1}, ws, uint8(0))
	f.Add(row, []byte{0, 1, 2, 3, 3, 0, 1}, ws, uint8(1))
	f.Add(append(row, row...), []byte{3, 1, 4, 1, 5, 9, 2}, ws, uint8(3))
	f.Fuzz(func(t *testing.T, rowBytes, tokBytes, wBytes []byte, width uint8) {
		dim := []int{12, 32, 48, 64, 96, 128}[int(width)%6]
		data := bytesToFloat32s(rowBytes)
		rows := len(data) / dim
		table := &Matrix32{Rows: rows, Cols: dim, Data: data[:rows*dim]}
		n := min(len(tokBytes), len(wBytes)/8)
		if rows == 0 {
			n = 0
		}
		toks, weights := make([]int32, n), make([]float64, n)
		for i := range toks {
			toks[i] = int32(int(tokBytes[i]) % rows)
			weights[i] = math.Float64frombits(le.Uint64(wBytes[i*8:]))
		}
		got, want := make([]float64, dim), make([]float64, dim)
		PoolRows64(got, table, toks, weights)
		poolRows64Go(want, table.Data, toks, weights)
		if d := diff64(got, want); d != "" {
			t.Fatalf("dim %d, %d tokens over %d rows: %s", dim, n, rows, d)
		}
	})
}
