package vec

// l2SqRows32 is L2SqRows32 without its shape check, in SSE2 assembly
// (kernels32_amd64.s) with the lane order of l2Sq32Go.
//
//go:noescape
func l2SqRows32(dst, rows, q []float32)
