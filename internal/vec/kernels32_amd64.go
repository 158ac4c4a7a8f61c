package vec

// l2SqRows32 is L2SqRows32 without its shape check, in SSE2 assembly
// (kernels32_amd64.s) with the lane order of l2Sq32Go.
//
//go:noescape
func l2SqRows32(dst, rows, q []float32)

// l2SqRows32AVX2 is l2SqRows32 on two rows at a time, with the same bits;
// len(dst) must be even and len(q) a positive multiple of 8.
//
//go:noescape
func l2SqRows32AVX2(dst, rows, q []float32)

// scansInAVX2 reports whether L2SqRows32 takes its AVX2 body for rows of
// dim floats.
func scansInAVX2(dim int) bool { return useAVX2 && dim > 0 && dim%8 == 0 }

// l2SqBlock32 is L2SqRows32's dispatch: the AVX2 body over every pair of
// rows where it applies, the SSE2 body over the rest.
func l2SqBlock32(dst, rows, q []float32) {
	if len(dst) >= 2 && scansInAVX2(len(q)) {
		pairs := len(dst) &^ 1
		l2SqRows32AVX2(dst[:pairs], rows[:pairs*len(q)], q)
		dst, rows = dst[pairs:], rows[pairs*len(q):]
	}
	l2SqRows32(dst, rows, q)
}

// poolRows32AVX2 is PoolRows32's AVX2 body; len(dst) must be a positive
// multiple of 8.
//
//go:noescape
func poolRows32AVX2(dst, rows []float32, toks []int32, ws []float64)

// poolsInAVX232 reports whether PoolRows32 takes its AVX2 body for rows of
// dim floats.
func poolsInAVX232(dim int) bool { return useAVX2 && dim > 0 && dim%8 == 0 }

func poolRows32(dst, rows []float32, toks []int32, ws []float64) {
	if poolsInAVX232(len(dst)) {
		poolRows32AVX2(dst, rows, toks, ws)
		return
	}
	poolRows32Go(dst, rows, toks, ws)
}
