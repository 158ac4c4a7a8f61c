package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"expertfind/internal/colstore"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
)

// TestMmapEquivalenceSharded is the sharded leg of the mmap acceptance
// suite: a 2-shard router topology whose shards serve an engine loaded
// from the mmap'd columnar snapshot must return rankings Float64bits-
// identical to the heap-decoded load of the same snapshot — the mapping
// is invisible at every layer above the matrix.
func TestMmapEquivalenceSharded(t *testing.T) {
	ds, eng := equivEngine(t)
	snap := filepath.Join(t.TempDir(), "engine.snap")
	w, err := os.Create(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SaveSnapshot(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	freshGraph := func() *core.Engine {
		g := dataset.Generate(dataset.AminerSim(200)).Graph
		e, err := core.LoadFileWith(snap, g, core.LoadOptions{Mmap: colstore.ModeOff})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	heap := freshGraph()
	mapped, err := core.LoadFileWith(snap,
		dataset.Generate(dataset.AminerSim(200)).Graph,
		core.LoadOptions{Mmap: colstore.ModeOn})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.CloseSnapshot()
	if !mapped.SnapshotMapped() {
		t.Fatal("ModeOn load did not map the snapshot")
	}

	queries := ds.Queries(6, rand.New(rand.NewSource(13)))
	const m, n = 40, 10
	for _, shards := range []int{2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := startTopology(t, mapped, shards, RouterConfig{}, ClientConfig{}, nil, nil)
			for _, q := range queries {
				want, _, err := heap.TopExperts(q.Text, m, n)
				if err != nil {
					t.Fatal(err)
				}
				got := queryExperts(t, topo.routerURL, q.Text, m, n)
				assertSameRanking(t, q.Text, got, want)
			}
		})
	}
}
