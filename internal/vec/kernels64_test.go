package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// special64 and special32 are the values the float64 kernels' sweep mixes
// into its random data: NaN, ±Inf, ±0, subnormals and the largest finite
// value (whose products overflow).
var (
	special64 = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.Float64frombits(1), -math.Float64frombits(0x000fffffffffffff), math.MaxFloat64}
	special32 = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 0, math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		math.MaxFloat32}
)

// mixed64 returns n normal draws, each replaced by a special value with
// probability special.
func mixed64(rng *rand.Rand, n int, special float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if rng.Float64() < special {
			v[i] = special64[rng.Intn(len(special64))]
		}
	}
	return v
}

func mixed32(rng *rand.Rand, n int, special float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
		if rng.Float64() < special {
			v[i] = special32[rng.Intn(len(special32))]
		}
	}
	return v
}

// diff64 and diff32 return "" when got and want are the same bits, or
// the first element that differs. Any two NaNs compare equal, as in
// bitsEq: which operand's payload a NaN result carries depends on the
// operand order the compiler picks, which -race alone changes.
func diff64(got, want []float64) string {
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("elem %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return ""
}

func diff32(got, want []float32) string {
	for i := range want {
		if !bitsEq(got[i], want[i]) {
			return fmt.Sprintf("elem %d: %x, want %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	return ""
}

// adamCoef computes an Adam row's coefficients at run time, as the trainer
// does: 1-beta1 is a float64 subtraction of a variable (as an untyped
// constant expression 1-0.9 would round to a different float64), and the
// bias corrections are 1-beta^t by math.Pow.
func adamCoef(beta1, beta2, lr, eps float64, t int) *AdamCoef {
	return &AdamCoef{
		Beta1: beta1, OneMinusBeta1: 1 - beta1,
		Beta2: beta2, OneMinusBeta2: 1 - beta2,
		BiasCorr1: 1 - math.Pow(beta1, float64(t)), BiasCorr2: 1 - math.Pow(beta2, float64(t)),
		LearningRate: lr, Epsilon: eps,
	}
}

// TestKernels64MatchGoBodies holds every float64 kernel to its portable Go
// body, bit for bit, for every length 0..67 (so the four-wide loop, the
// pair step and the scalar tail each run with and without the others),
// on normal data and on data a quarter of which is special values.
func TestKernels64MatchGoBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	alphas := []float64{0.37, -1.5e-3, 0, math.Copysign(0, -1), math.Float64frombits(1), math.Inf(1), 1e300}
	steps := []int{1, 2, 10, 1000, 1 << 20}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			special := 0.0
			if trial%2 == 1 {
				special = 0.25
			}
			x32, y32 := mixed32(rng, n, special), mixed32(rng, n, special)
			x64, y64, z64 := mixed64(rng, n, special), mixed64(rng, n, special), mixed64(rng, n, special)
			alpha := alphas[trial%len(alphas)]
			if trial < 2 {
				alpha = rng.NormFloat64()
			}

			got, want := append([]float64(nil), x64...), append([]float64(nil), x64...)
			AxpyInto64(got, alpha, x32)
			axpyInto64Go(want, alpha, x32)
			if d := diff64(got, want); d != "" {
				t.Fatalf("AxpyInto64 len=%d trial=%d alpha=%v: %s", n, trial, alpha, d)
			}

			got, want = append([]float64(nil), x64...), append([]float64(nil), x64...)
			Vector(got).Axpy(alpha, y64)
			axpy64Go(want, alpha, y64)
			if d := diff64(got, want); d != "" {
				t.Fatalf("Vector.Axpy len=%d trial=%d alpha=%v: %s", n, trial, alpha, d)
			}

			// The moments as training leaves them: m of either sign, v
			// non-negative (specials aside).
			for i := range y64 {
				y64[i] = math.Abs(y64[i]) * 1e-3
			}
			k := adamCoef(0.9, 0.999, 0.01, 1e-8, steps[trial%len(steps)])
			w, wGo := append([]float32(nil), y32...), append([]float32(nil), y32...)
			m, mGo := append([]float64(nil), x64...), append([]float64(nil), x64...)
			v, vGo := append([]float64(nil), y64...), append([]float64(nil), y64...)
			AdamRow(w, m, v, z64, k)
			adamRowGo(wGo, mGo, vGo, z64, k)
			for _, d := range []string{diff32(w, wGo), diff64(m, mGo), diff64(v, vGo)} {
				if d != "" {
					t.Fatalf("AdamRow len=%d trial=%d: %s", n, trial, d)
				}
			}
		}
	}
}

// TestAdamRowIsTheAdamUpdate holds AdamRow to the update written out with
// the decay rates as variables, as the trainer's Config holds them, at
// the first step and at steps where the bias corrections round to 1.
func TestAdamRowIsTheAdamUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	beta1, beta2, lr, eps := 0.9, 0.999, 0.01, 1e-8
	for _, step := range []int{1, 2, 3, 50, 10000, 1 << 30} {
		for _, n := range []int{1, 12, 64, 67} {
			w := mixed32(rng, n, 0)
			m, v, g := mixed64(rng, n, 0), mixed64(rng, n, 0), mixed64(rng, n, 0)
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			wantW, wantM, wantV := append([]float32(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
			bc1 := 1 - math.Pow(beta1, float64(step))
			bc2 := 1 - math.Pow(beta2, float64(step))
			for j, gj := range g {
				wantM[j] = beta1*wantM[j] + (1-beta1)*gj
				wantV[j] = beta2*wantV[j] + (1-beta2)*gj*gj
				mHat := wantM[j] / bc1
				vHat := wantV[j] / bc2
				wantW[j] = float32(float64(wantW[j]) - lr*mHat/(math.Sqrt(vHat)+eps))
			}
			AdamRow(w, m, v, g, adamCoef(beta1, beta2, lr, eps, step))
			for _, d := range []string{diff32(w, wantW), diff64(m, wantM), diff64(v, wantV)} {
				if d != "" {
					t.Fatalf("step %d len %d: %s", step, n, d)
				}
			}
		}
	}
}
