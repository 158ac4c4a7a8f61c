package par

import (
	"sync"
	"testing"
)

// TestChunksGrid pins the grid callers merge in order: chunk c is
// [c·ceil(n/parts), min((c+1)·ceil(n/parts), n)), every index is visited
// once, and parts above n or below 1 still cover [0,n).
func TestChunksGrid(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 8}, {5, 8}, {9, 8}, {64, 8}, {100, 8}, {7, 1}, {7, 0}, {10, 3},
	} {
		var mu sync.Mutex
		got := map[int][2]int{}
		seen := make([]int, tc.n)
		Chunks(tc.n, tc.parts, func(c, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			got[c] = [2]int{lo, hi}
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("n=%d parts=%d: index %d visited %d times", tc.n, tc.parts, i, s)
			}
		}
		parts := max(min(tc.parts, tc.n), 1)
		size := (tc.n + parts - 1) / parts
		for c, r := range got {
			if want := [2]int{c * size, min((c+1)*size, tc.n)}; r != want {
				t.Errorf("n=%d parts=%d: chunk %d is %v, want %v", tc.n, tc.parts, c, r, want)
			}
		}
		if len(got) > parts {
			t.Errorf("n=%d parts=%d: %d chunks", tc.n, tc.parts, len(got))
		}
	}
}
