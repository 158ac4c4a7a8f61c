package vec

// The float64 kernels of kernels64.go without their length checks, in
// SSE2 assembly (kernels64_amd64.s).

//go:noescape
func axpyInto64(dst []float64, alpha float64, x []float32)

//go:noescape
func axpy64(v []float64, a float64, w []float64)

//go:noescape
func adamRow(w []float32, m, v, g []float64, k *AdamCoef)
