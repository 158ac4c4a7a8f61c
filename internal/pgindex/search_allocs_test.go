//go:build !race

// The race detector changes what a call allocates, and sync.Pool drops
// items at random under it: the bound runs without it (CI's "search
// allocation bound" step).

package pgindex

import (
	"math/rand"
	"slices"
	"testing"

	"expertfind/internal/hetgraph"
)

// TestSearchAllocs bounds what a steady-state Search allocates at the
// BenchmarkSearch shape (5 000 clustered rows of 64 dimensions, m = 200,
// the default pool of 2m): its result slice and nothing else, so the
// walk's key runs, marks and sort scratch come back from the pool.
func TestSearchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	embs := clusteredEmbeddings(rng, 100, 50, 64)
	idx := build(embs, DefaultConfig())
	q := slices.Clone(embs[hetgraph.NodeID(rng.Intn(len(embs)))])
	for j := range q {
		q[j] += float32(rng.NormFloat64() * 0.02)
	}
	idx.Search(q, 200, 0) // fill the pool
	if allocs := testing.AllocsPerRun(50, func() { scanSink, _ = idx.Search(q, 200, 0) }); allocs > 1 {
		t.Fatalf("Search allocates %v times a run, want at most 1 (its result slice)", allocs)
	}
}
