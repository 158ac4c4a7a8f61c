package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var (
	sinkF32 float32
	sinkF64 float64
	sinkI32 int32
)

func benchVecs(n int) (Vector, Vector, []float32, []float32, []int8, []int8) {
	rng := rand.New(rand.NewSource(int64(n)))
	a64, b64 := New(n), New(n)
	a32, b32 := make([]float32, n), make([]float32, n)
	ai, bi := make([]int8, n), make([]int8, n)
	for i := 0; i < n; i++ {
		a64[i], b64[i] = rng.NormFloat64(), rng.NormFloat64()
		a32[i], b32[i] = float32(a64[i]), float32(b64[i])
		ai[i], bi[i] = int8(rng.Intn(255)-127), int8(rng.Intn(255)-127)
	}
	return a64, b64, a32, b32, ai, bi
}

func benchSizes(b *testing.B, f func(b *testing.B, n int)) {
	for _, n := range []int{64, 128, 256} {
		b.Run(map[int]string{64: "64", 128: "128", 256: "256"}[n], func(b *testing.B) { f(b, n) })
	}
}

func BenchmarkDot64(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		a64, b64, _, _, _, _ := benchVecs(n)
		b.SetBytes(int64(2 * 8 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF64 = a64.Dot(b64)
		}
	})
}

func BenchmarkDot32(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		_, _, a32, b32, _, _ := benchVecs(n)
		b.SetBytes(int64(2 * 4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF32 = Dot32(a32, b32)
		}
	})
}

func BenchmarkDotInt8(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		_, _, _, _, ai, bi := benchVecs(n)
		b.SetBytes(int64(2 * 1 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkI32 = DotInt8(ai, bi)
		}
	})
}

func BenchmarkL2Sq32(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		_, _, a32, b32, _, _ := benchVecs(n)
		b.SetBytes(int64(2 * 4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkF32 = L2Sq32(a32, b32)
		}
	})
}

// BenchmarkL2SqRows32 streams one block of 64-dim rows per call at three
// working sets: 1 024 rows (256 KiB, inside L2), 20 000 (5 MiB, the
// query_exact corpus, past a 2 MiB L2) and 100 000 (25.6 MB). "kernel" is
// L2SqRows32 (two rows per register where the CPU has AVX2), "sse2" the
// one-row body it falls back to (on other architectures the portable
// one), "portable" the Go body other architectures run; SetBytes counts
// the rows read, so MB/s is the kernel's bandwidth.
func BenchmarkL2SqRows32(b *testing.B) {
	for _, n := range []int{1024, 20000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		rows, q := randSlice32(rng, n*64), randSlice32(rng, 64)
		dst := make([]float32, n)
		for _, k := range []struct {
			name string
			f    func(dst, rows, q []float32)
		}{{"kernel", L2SqRows32}, {"sse2", l2SqRows32}, {"portable", l2SqRows32Go}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				b.SetBytes(int64(len(rows) * 4))
				for i := 0; i < b.N; i++ {
					k.f(dst, rows, q)
				}
			})
		}
	}
}

func BenchmarkAxpy32(b *testing.B) {
	benchSizes(b, func(b *testing.B, n int) {
		_, _, a32, b32, _, _ := benchVecs(n)
		dst := append([]float32(nil), a32...)
		b.SetBytes(int64(3 * 4 * n))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Axpy32(dst, 0.5, b32)
		}
	})
}

// The float64 kernels of the fine-tune at the dimensions the benchmark
// and the tests build with (64, 12): "kernel" is the exported entry point,
// SSE2 on amd64; "portable" the Go body other architectures run.
func benchKernels64(b *testing.B, f func(b *testing.B, n int, portable bool)) {
	for _, n := range []int{12, 64} {
		for _, portable := range []bool{false, true} {
			name := map[bool]string{false: "kernel", true: "portable"}[portable]
			b.Run(fmt.Sprintf("d=%d/%s", n, name), func(b *testing.B) { f(b, n, portable) })
		}
	}
}

func BenchmarkAxpyInto64(b *testing.B) {
	benchKernels64(b, func(b *testing.B, n int, portable bool) {
		a64, _, _, b32, _, _ := benchVecs(n)
		k := axpyInto64
		if portable {
			k = axpyInto64Go
		}
		for i := 0; i < b.N; i++ {
			k(a64, 1e-9, b32)
		}
	})
}

func BenchmarkAxpy64(b *testing.B) {
	benchKernels64(b, func(b *testing.B, n int, portable bool) {
		a64, b64, _, _, _, _ := benchVecs(n)
		k := func(v Vector, a float64, w Vector) { v.Axpy(a, w) }
		if portable {
			k = func(v Vector, a float64, w Vector) { axpy64Go(v, a, w) }
		}
		for i := 0; i < b.N; i++ {
			k(a64, 1e-9, b64)
		}
	})
}

// BenchmarkAdamRow is one optimiser step of one embedding row at the
// trainer's defaults, late enough that the moments have settled.
func BenchmarkAdamRow(b *testing.B) {
	benchKernels64(b, func(b *testing.B, n int, portable bool) {
		m, g, _, w32, _, _ := benchVecs(n)
		v := New(n)
		for i := range v {
			v[i] = g[i] * g[i]
		}
		beta1, beta2 := 0.9, 0.999
		c := &AdamCoef{Beta1: beta1, OneMinusBeta1: 1 - beta1, Beta2: beta2, OneMinusBeta2: 1 - beta2,
			BiasCorr1: 1 - math.Pow(beta1, 100), BiasCorr2: 1 - math.Pow(beta2, 100),
			LearningRate: 0.01, Epsilon: 1e-8}
		k := AdamRow
		if portable {
			k = adamRowGo
		}
		for i := 0; i < b.N; i++ {
			k(w32, m, v, g, c)
		}
	})
}

// BenchmarkPoolRows64 pools 68-token documents, a query_pg paper's
// length, from a 14 366 x 64 table, the size of that workload's
// vocabulary (3.7 MB): "kernel" is PoolRows64, the AVX2 body where the
// CPU has it; "portable" the Go body, one axpyInto64 per token. Each
// iteration pools the next of 1 024 documents of random tokens, so the
// rows come from L2 or L3 as they do in a fine-tune, not from L1.
func BenchmarkPoolRows64(b *testing.B) {
	rng := rand.New(rand.NewSource(68))
	table := NewMatrix32(14366, 64)
	copy(table.Data, randSlice32(rng, len(table.Data)))
	const docs, doc = 1024, 68
	toks, ws := make([]int32, docs*doc), make([]float64, docs*doc)
	for i := range toks {
		toks[i], ws[i] = int32(rng.Intn(table.Rows)), rng.Float64()/doc
	}
	dst := make([]float64, table.Cols)
	for _, k := range []struct {
		name string
		f    func(toks []int32, ws []float64)
	}{
		{"kernel", func(toks []int32, ws []float64) { PoolRows64(dst, table, toks, ws) }},
		{"portable", func(toks []int32, ws []float64) { poolRows64Go(dst, table.Data, toks, ws) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i % docs * doc
				k.f(toks[lo:lo+doc], ws[lo:lo+doc])
			}
		})
	}
}

// BenchmarkPoolRows32 pools 68-token documents, a query's length on the
// query_pg corpus, from a 14 181 x 64 table, the size of the vocabulary
// of AminerSim(3000) (3.6 MB): "kernel" is PoolRows32, the AVX2 body where
// the CPU has it; "portable" the Go body, one axpy32Go per token. Each
// iteration pools the next of 1 024 documents of random tokens.
func BenchmarkPoolRows32(b *testing.B) {
	rng := rand.New(rand.NewSource(68))
	table := NewMatrix32(14181, 64)
	copy(table.Data, randSlice32(rng, len(table.Data)))
	const docs, doc = 1024, 68
	toks, ws := make([]int32, docs*doc), make([]float64, docs*doc)
	for i := range toks {
		toks[i], ws[i] = int32(rng.Intn(table.Rows)), rng.Float64()/doc
	}
	dst := make([]float32, table.Cols)
	for _, k := range []struct {
		name string
		f    func(toks []int32, ws []float64)
	}{
		{"kernel", func(toks []int32, ws []float64) { PoolRows32(dst, table, toks, ws) }},
		{"portable", func(toks []int32, ws []float64) { poolRows32Go(dst, table.Data, toks, ws) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := i % docs * doc
				k.f(toks[lo:lo+doc], ws[lo:lo+doc])
			}
		})
	}
}
