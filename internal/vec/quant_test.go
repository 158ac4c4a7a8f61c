package vec

import (
	"math"
	"math/rand"
	"testing"
)

// naiveDotInt8 is the sequential integer reference for DotInt8.
func naiveDotInt8(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

func TestDotInt8MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 67; n++ {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := 0; i < n; i++ {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		if got, want := DotInt8(a, b), naiveDotInt8(a, b); got != want {
			t.Fatalf("DotInt8 len=%d: kernel %d, reference %d", n, got, want)
		}
	}
	// Extremes: all +-127 at the overflow-relevant lengths.
	for _, n := range []int{1, 7, 64, 4096} {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := range a {
			a[i], b[i] = 127, -127
		}
		want := int32(n) * -127 * 127
		if got := DotInt8(a, b); got != want {
			t.Fatalf("DotInt8 extremes len=%d: %d, want %d", n, got, want)
		}
	}
}

// TestQuantizeRoundTripError asserts the per-component error contract:
// |x - code*scale| <= scale/2·(1+ε) for finite rows with a representable
// scale, and exact zero codes for zero/non-finite/underflowing rows.
func TestQuantizeRoundTripError(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(v []float32) {
		t.Helper()
		codes := make([]int8, len(v))
		scale, sqNorm := QuantizeRow(codes, v)
		if scale == 0 {
			for i, c := range codes {
				if c != 0 {
					t.Fatalf("scale 0 but code[%d] = %d", i, c)
				}
			}
			if sqNorm != 0 {
				t.Fatalf("scale 0 but sqNorm = %v", sqNorm)
			}
			return
		}
		// The documented contract: half-step of rounding to integer plus
		// the relative roundings of scale and its reciprocal.
		bound := float64(scale) * (0.5 + 1.0/1024)
		for i, x := range v {
			deq := float64(codes[i]) * float64(scale)
			if err := math.Abs(float64(x) - deq); err > bound {
				t.Fatalf("component %d: |%g - %g| = %g > %g (scale %g)", i, x, deq, err, bound, scale)
			}
		}
		// sqNorm must equal scale² · Σ codes² with the documented roundings.
		want := scale * scale * float32(naiveDotInt8(codes, codes))
		if math.Float32bits(sqNorm) != math.Float32bits(want) {
			t.Fatalf("sqNorm %x, want %x", math.Float32bits(sqNorm), math.Float32bits(want))
		}
	}

	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(70)
		v := make([]float32, n)
		mag := math.Pow(10, rng.Float64()*20-10) // magnitudes 1e-10 .. 1e10
		for i := range v {
			v[i] = float32(rng.NormFloat64() * mag)
		}
		check(v)
	}

	// Edge rows.
	den := math.Float32frombits(1)
	check([]float32{})
	check([]float32{0, 0, 0})
	check([]float32{den, den, -den})                    // scale underflows to 0
	check([]float32{1e-40, -1e-40, 5e-41})              // denormal maxAbs → subnormal scale → 0
	check([]float32{4.26e-43, 0, 0})                    // subnormal-scale regression (fuzz find)
	check([]float32{2e-36, -1e-36})                     // just above the flush threshold
	check([]float32{float32(math.NaN()), 1, 2})         // non-finite → zero codes
	check([]float32{float32(math.Inf(1)), 1})           // non-finite → zero codes
	check([]float32{math.MaxFloat32, -math.MaxFloat32}) // extreme magnitude
	check([]float32{1})                                 // single component: code must be ±127
}
