//go:build !amd64

package vec

func l2SqRows32(dst, rows, q []float32) { l2SqRows32Go(dst, rows, q) }

func l2SqBlock32(dst, rows, q []float32) { l2SqRows32Go(dst, rows, q) }

func poolRows32(dst, rows []float32, toks []int32, ws []float64) { poolRows32Go(dst, rows, toks, ws) }
