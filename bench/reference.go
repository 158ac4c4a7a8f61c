package main

import (
	"sort"

	"expertfind/internal/core"
	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// referenceTopExperts answers a query the slow, obvious way, sharing no
// code with the engine's query path beyond the encoder and the distance
// kernel: score every paper, sort all of them by (distance, id), keep the
// first m, and rank every candidate expert without the threshold
// algorithm. An exact engine must return the same experts with the same
// score bits. corrupt swaps the first two entries, for the test that
// proves the check can fail.
func referenceTopExperts(eng *core.Engine, text string, corrupt bool) []ta.Ranking {
	qv := eng.EncodeQuery(text)
	type scored struct {
		id   hetgraph.NodeID
		dist float64
	}
	all := make([]scored, 0, len(eng.Embeddings))
	for id, v := range eng.Embeddings {
		all = append(all, scored{id, qv.L2(v)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].dist != all[j].dist {
			return all[i].dist < all[j].dist
		}
		return all[i].id < all[j].id
	})
	papers := make([]hetgraph.NodeID, 0, topM)
	for _, s := range all[:min(topM, len(all))] {
		papers = append(papers, s.id)
	}
	ranks := ta.TopExpertsFullScan(eng.Graph(), papers, topN)
	if corrupt && len(ranks) > 1 {
		ranks[0], ranks[1] = ranks[1], ranks[0]
	}
	return ranks
}
