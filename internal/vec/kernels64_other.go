//go:build !amd64

package vec

func axpyInto64(dst []float64, alpha float64, x []float32) { axpyInto64Go(dst, alpha, x) }

func axpy64(v []float64, a float64, w []float64) { axpy64Go(v, a, w) }

func adamRow(w []float32, m, v, g []float64, k *AdamCoef) { adamRowGo(w, m, v, g, k) }
