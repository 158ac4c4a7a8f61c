package cluster

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/pgindex"
	"expertfind/internal/ta"
)

// TestIndexedShardRetrieve covers the leg TestRouterMatchesSingleNode
// leaves out because its shards scan exactly: a topology whose shards
// search a PG-Index, with the pool below every shard's corpus so the graph
// traversal runs and not its exhaustive fallback. For S in {1, 2, 4} the
// router must answer /experts as the single node's ranker does over the
// global top-m of what each shard's own index Search returns — same
// experts, same order, same Float64bits, ties included.
func TestIndexedShardRetrieve(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(8, rand.New(rand.NewSource(29)))
	const m, n, ef = 10, 10, 24
	cfg := func(id, of int) ShardConfig {
		return ShardConfig{ID: id, Of: of, UsePGIndex: true, EF: ef,
			Index: pgindex.Config{Refine: true, Seed: 11}}
	}

	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			topo := startTopologyCfg(t, eng, shards, RouterConfig{}, ClientConfig{}, nil, nil, cfg)
			engines := make([]*ShardEngine, shards)
			for i := range engines {
				se, err := NewShardEngine(eng, cfg(i, shards))
				if err != nil {
					t.Fatal(err)
				}
				if se.NumOwned() <= ef {
					t.Fatalf("shard %d/%d owns %d papers: a pool of %d would scan them all", i, shards, se.NumOwned(), ef)
				}
				engines[i] = se
			}
			for _, q := range queries {
				var all []pgindex.Result
				for _, se := range engines {
					res, _ := se.index.Search(eng.EncodeQuery(q.Text), m, ef)
					all = append(all, res...)
				}
				slices.SortFunc(all, func(a, b pgindex.Result) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.ID, b.ID))
				})
				papers := make([]hetgraph.NodeID, 0, m)
				for _, r := range all[:min(m, len(all))] {
					papers = append(papers, r.ID)
				}
				want, _ := ta.TopExperts(eng.Graph(), papers, n)
				assertSameRanking(t, q.Text, queryExperts(t, topo.routerURL, q.Text, m, n), want)
			}
		})
	}
}
