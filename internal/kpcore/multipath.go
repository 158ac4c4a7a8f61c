package kpcore

import (
	"sort"

	"expertfind/internal/hetgraph"
)

// SearchMulti runs the §V optimisation: for a seed paper it searches one
// (k,P)-core community per meta-path and intersects them (Eq. 8), yielding
// the common sub-community G^k_{P1..Pl} whose papers are cohesive under
// every relationship simultaneously.
//
// Core and Members of the result are the intersections of the per-path
// Core and Members sets; Near is the union of the per-path near pools (a
// paper close to any one community is a useful near negative). With a
// single meta-path it reduces exactly to Search.
func SearchMulti(g *hetgraph.Graph, seed hetgraph.NodeID, k int, mps []hetgraph.MetaPath) *Community {
	if len(mps) == 0 {
		panic("kpcore: SearchMulti needs at least one meta-path")
	}
	result := Search(g, seed, k, mps[0])
	for _, mp := range mps[1:] {
		result.intersect(Search(g, seed, k, mp))
	}
	return result
}

// intersect narrows c to the common sub-community with next, a community
// of the same seed under another meta-path (Eq. 8). The seed stays a
// member — each search's extension puts it in Members — and Near stays
// disjoint from Members, because each near pool is disjoint from its own
// path's members and the intersection is a subset of those.
func (c *Community) intersect(next *Community) {
	c.Core = intersectSorted(c.Core, next.Core)
	c.Members = intersectSorted(c.Members, next.Members)
	c.Near = unionSorted(c.Near, next.Near)
}

func intersectSorted(a, b []hetgraph.NodeID) []hetgraph.NodeID {
	out := a[:0:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionSorted(a, b []hetgraph.NodeID) []hetgraph.NodeID {
	out := make([]hetgraph.NodeID, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return dedupSorted(out)
}

// SearchMultiIndexed is SearchMulti answered from prebuilt CoreIndexes
// (one per meta-path, all with the same k): the same Core, Members and
// Near, or with boundaryNear the union of the per-path boundary pools
// (see CoreIndex.CommunityAround). Building the indexes once and calling
// this per seed is how the sampling stage searches its f·|V(P)| seeds.
func SearchMultiIndexed(idxs []*CoreIndex, seed hetgraph.NodeID, boundaryNear bool) *Community {
	if len(idxs) == 0 {
		panic("kpcore: SearchMultiIndexed needs at least one index")
	}
	result := idxs[0].CommunityAround(seed, boundaryNear)
	for _, idx := range idxs[1:] {
		result.intersect(idx.CommunityAround(seed, boundaryNear))
	}
	return result
}
