// Package par runs a loop over [0,n) in contiguous chunks, one goroutine
// per chunk: the one fan-out the offline build uses for the vocabulary's
// counts, the n-gram table, the distributional pre-training, the token
// cache, the (k,P)-core projection, gradient sums, optimiser steps,
// embedding, the kNN-graph join and the PG-Index refine.
package par

import "sync"

// Chunks cuts [0,n) into at most parts contiguous chunks of
// ceil(n/parts) and runs fn on each — concurrently, or inline when there
// is one — returning when all are done. Chunk c is always the same range
// for the same (n, parts), so a caller that merges per-chunk results in
// chunk order gets the same bits however many chunks ran at once.
func Chunks(n, parts int, fn func(c, lo, hi int)) {
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	size := (n + parts - 1) / parts
	var wg sync.WaitGroup
	for c := 0; c*size < n; c++ {
		lo, hi := c*size, min((c+1)*size, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, lo, hi)
		}()
	}
	wg.Wait()
}
