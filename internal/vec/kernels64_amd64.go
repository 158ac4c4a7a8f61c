package vec

// The float64 kernels of kernels64.go without their length checks, in
// SSE2 assembly (kernels64_amd64.s), and PoolRows64's dispatch between
// its AVX2 body and the Go one.

//go:noescape
func axpyInto64(dst []float64, alpha float64, x []float32)

//go:noescape
func axpy64(v []float64, a float64, w []float64)

//go:noescape
func adamRow(w []float32, m, v, g []float64, k *AdamCoef)

// poolRows64AVX2 is PoolRows64's AVX2 body; len(dst) must be a positive
// multiple of 32.
//
//go:noescape
func poolRows64AVX2(dst []float64, rows []float32, toks []int32, ws []float64)

// cpuid returns the registers CPUID leaves for leaf eax, subleaf ecx.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low half of extended control register 0: which
// register states the OS saves on a context switch.
func xgetbv0() uint32

// hasAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), XCR0 has
// the SSE and AVX states (bits 1 and 2), and CPUID.7.0:EBX has AVX2
// (bit 5).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX {
		return false
	}
	if xgetbv0()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// useAVX2 is hasAVX2, asked once.
var useAVX2 = hasAVX2()

// poolsInAVX2 reports whether PoolRows64 takes its AVX2 body for rows of
// dim floats.
func poolsInAVX2(dim int) bool { return useAVX2 && dim > 0 && dim%32 == 0 }

func poolRows64(dst []float64, rows []float32, toks []int32, ws []float64) {
	if poolsInAVX2(len(dst)) {
		poolRows64AVX2(dst, rows, toks, ws)
		return
	}
	poolRows64Go(dst, rows, toks, ws)
}
