package pgindex

import (
	"fmt"
	"slices"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// Insert adds a newly embedded paper to an existing index without a full
// rebuild, so a corpus can grow between offline builds. The new node's
// out-neighbours are chosen by searching the current graph for its
// nearest candidates and applying the same occlusion rule as Algorithm 2;
// reverse edges are added (re-pruned when a neighbour's list overflows)
// so the node is reachable. The first insert into an empty index makes
// the node the navigating node. An index without a graph only appends
// the row. id must be above every indexed id, so the ids stay ascending.
func (idx *Index) Insert(id hetgraph.NodeID, v vec.Vec32) error {
	if n := len(idx.ids); n > 0 && id <= idx.ids[n-1] {
		return fmt.Errorf("pgindex: paper %d is not above the last indexed id %d", id, idx.ids[n-1])
	}
	if idx.embs == nil || idx.embs.Rows == 0 {
		// First insert (or an index built over nothing): the new paper
		// fixes the dimensionality.
		idx.embs = vec.NewMatrix32(0, v.Dim())
	}
	if v.Dim() != idx.embs.Cols {
		return fmt.Errorf("pgindex: dimension %d != index dimension %d", v.Dim(), idx.embs.Cols)
	}

	dense := int32(len(idx.ids))
	idx.ids = append(idx.ids, id)
	idx.embs.AppendRow(v)
	if !idx.graph {
		return nil
	}
	idx.nbrs = append(idx.nbrs, nil)
	if dense == 0 {
		idx.nav = 0
		return nil
	}

	// Candidate neighbours: the nearest nodes under the current graph
	// (over-fetched, then occlusion-pruned like refineNeighbors) at the
	// degree a build refines to, so an inserted node links like a built one.
	maxDegree := 2 * DefaultConfig().K
	cands := idx.searchDense(v, maxDegree*3)
	// The exhaustive search path scans every row, including the one just
	// appended; as a candidate for itself it sits at distance zero and
	// occludes everything, leaving the node an island.
	cands = slices.DeleteFunc(cands, func(c int32) bool { return c == dense })
	idx.nbrs[dense] = idx.refineNeighbors(dense, cands, maxDegree)

	// Reverse edges keep the new node reachable; overflowing lists are
	// re-pruned with the same rule.
	for _, nb := range idx.nbrs[dense] {
		idx.nbrs[nb] = append(idx.nbrs[nb], dense)
		if len(idx.nbrs[nb]) > maxDegree*2 {
			idx.nbrs[nb] = idx.refineNeighbors(nb, idx.nbrs[nb], maxDegree)
		}
	}
	if len(idx.nbrs[dense]) == 0 {
		// Degenerate geometry (e.g. exact duplicates): link to the
		// navigating node so reachability holds.
		idx.nbrs[dense] = append(idx.nbrs[dense], idx.nav)
		idx.nbrs[idx.nav] = append(idx.nbrs[idx.nav], dense)
	}
	return nil
}

// searchDense is Search returning dense indices, for internal use.
func (idx *Index) searchDense(q vec.Vec32, m int) []int32 {
	res, _ := idx.Search(q, m, 0)
	out := make([]int32, len(res))
	for i, r := range res {
		out[i], _ = idx.row(r.ID)
	}
	return out
}
