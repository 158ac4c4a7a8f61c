//go:build !amd64

package vec

func l2SqRows32(dst, rows, q []float32) { l2SqRows32Go(dst, rows, q) }
