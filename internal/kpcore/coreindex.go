package kpcore

import (
	"fmt"
	"slices"

	"expertfind/internal/hetgraph"
)

// CoreIndex answers Algorithm 1 for every seed of one graph, meta-path and
// k from one projection and one core decomposition: Core, Members and Near
// equal Search's for any seed, in O(|community|) per seed instead of one
// labelled search and one peel each. The sampling stage issues f·|V(P)|
// searches over the same graph, and for a topic-wide meta-path every one
// of them re-peels the same component; the index peels it once.
//
// Why it is exact. Let H be the papers whose P-degree is at least k.
// (1) Algorithm 1 expands only from H, so its candidate set S is the union
// of the connected components of the sub-graph induced by H that the seed
// belongs to or is adjacent to. (2) Every (k,P)-core member lies in H, so
// the k-core of such a component is the global k-core inside it: peeling S
// removes exactly the component's non-core papers. (3) The delete queue
// therefore holds, per component C, the sub-k papers adjacent to it and
// the members it peeled — (N(C) \ H) ∪ (C \ core), a set that does not
// depend on the seed. (4) Core is the union of the core components the
// seed belongs to or is adjacent to, Members adds the seed and its
// P-neighbours, and Near is the union of (3) over (1) minus Members.
//
// The index is a snapshot of the graph at construction and serves the
// papers that existed then.
type CoreIndex struct {
	// h is the projection along the meta-path: h.Adj[p] lists the
	// P-neighbours of paper p.
	h *hetgraph.HomoGraph

	// coreOf[p] labels the core component of paper p — a connected
	// component of the sub-graph induced by the (k,P)-core — and is -1
	// outside the core. Indexed by NodeID, like candOf.
	coreOf []int32
	// members[c] lists core component c, sorted.
	members [][]hetgraph.NodeID
	// boundary[c] lists the non-core papers P-adjacent to core component
	// c, sorted: the smaller near pool CommunityAround returns on request.
	// It exists because the frozen benchmark pins the triples four of its
	// workloads draw from it (sampling.Config.UseCoreIndex).
	boundary [][]hetgraph.NodeID

	// candOf[p] labels the candidate component of paper p — a connected
	// component of the sub-graph induced by H — and is -1 for sub-k papers.
	candOf []int32
	// pruned[d] is what Algorithm 1's delete queue holds once it has
	// worked through candidate component d (point 3 above), sorted.
	pruned [][]hetgraph.NodeID
}

// NewCoreIndex builds the index by projecting g along mp and decomposing
// the projection once. It panics unless mp is a symmetric paper-paper
// meta-path: the (k,P)-core is defined over an undirected P-neighbour
// relation, and the component argument above needs one.
func NewCoreIndex(g *hetgraph.Graph, k int, mp hetgraph.MetaPath) *CoreIndex {
	if !mp.IsPaperPaper() || !mp.IsSymmetric() {
		panic(fmt.Sprintf("kpcore: meta-path %s is not a symmetric paper-paper path", mp))
	}
	if k < 0 {
		panic(fmt.Sprintf("kpcore: negative k %d", k))
	}
	h := hetgraph.Project(g, mp)
	coreNumber := Decompose(h).CoreNumber
	inCore := make([]bool, g.NumNodes())
	inCand := make([]bool, g.NumNodes())
	for _, p := range h.Nodes {
		inCore[p] = coreNumber[p] >= k
		inCand[p] = len(h.Adj[p]) >= k
	}

	idx := &CoreIndex{h: h}
	idx.coreOf, idx.members, idx.boundary = components(h, inCore)
	var cands [][]hetgraph.NodeID
	idx.candOf, cands, idx.pruned = components(h, inCand)
	for d, comp := range cands {
		for _, p := range comp {
			if !inCore[p] {
				idx.pruned[d] = append(idx.pruned[d], p)
			}
		}
		slices.Sort(idx.pruned[d])
	}
	return idx
}

// components labels the connected components of the sub-graph of h
// induced by the papers p with in[p] (in is indexed by NodeID). It returns
// the label of every node (-1 outside the set), each component's papers,
// and each component's fringe: the papers outside the set that are
// adjacent to it. Both lists are sorted.
func components(h *hetgraph.HomoGraph, in []bool) (label []int32, members, fringe [][]hetgraph.NodeID) {
	label = make([]int32, len(in))
	// onFringe[p] is the last component that recorded the outside paper p.
	onFringe := make([]int32, len(in))
	for i := range label {
		label[i], onFringe[i] = -1, -1
	}
	for _, p := range h.Nodes {
		if label[p] >= 0 || !in[p] {
			continue
		}
		c := int32(len(members))
		comp := []hetgraph.NodeID{p}
		var out []hetgraph.NodeID
		label[p] = c
		for i := 0; i < len(comp); i++ {
			for _, u := range h.Adj[comp[i]] {
				switch {
				case !in[u]:
					if onFringe[u] != c {
						onFringe[u] = c
						out = append(out, u)
					}
				case label[u] < 0:
					label[u] = c
					comp = append(comp, u)
				}
			}
		}
		slices.Sort(comp)
		slices.Sort(out)
		members = append(members, comp)
		fringe = append(fringe, out)
	}
	return label, members, fringe
}

// CommunityAround answers the same query as Search with the same answer:
// the seed-connected core region, the extended member set (seed + its
// P-neighbours) and Algorithm 1's delete queue as the near pool. With
// boundaryNear the near pool is instead the community's boundary — the
// non-core papers adjacent to its core components, a subset of the delete
// queue. It panics if seed is not a paper the index was built over.
func (idx *CoreIndex) CommunityAround(seed hetgraph.NodeID, boundaryNear bool) *Community {
	if _, ok := idx.h.Index(seed); !ok {
		panic(fmt.Sprintf("kpcore: seed %d is not a paper of the indexed graph", seed))
	}
	nbrs := idx.h.Adj[seed]
	coreLabels := touchedLabels(idx.coreOf, seed, nbrs)
	core := unionOf(idx.members, coreLabels)

	members := make([]hetgraph.NodeID, 0, 1+len(nbrs)+len(core))
	members = append(members, seed)
	members = append(members, nbrs...)
	members = append(members, core...)
	slices.Sort(members)
	members = slices.Compact(members)

	var pool []hetgraph.NodeID
	if boundaryNear {
		pool = unionOf(idx.boundary, coreLabels)
	} else {
		pool = unionOf(idx.pruned, touchedLabels(idx.candOf, seed, nbrs))
	}
	// The extension re-admits pruned neighbours of the seed: they are
	// members, and the two sets must stay disjoint (see Search).
	near := pool[:0]
	i := 0
	for _, v := range pool {
		for i < len(members) && members[i] < v {
			i++
		}
		if i == len(members) || members[i] != v {
			near = append(near, v)
		}
	}
	return &Community{Seed: seed, Core: core, Members: members, Near: near}
}

// touchedLabels returns the distinct components, ascending, that the seed
// belongs to or is adjacent to.
func touchedLabels(label []int32, seed hetgraph.NodeID, nbrs []hetgraph.NodeID) []int32 {
	var out []int32
	if c := label[seed]; c >= 0 {
		out = append(out, c)
	}
	for _, u := range nbrs {
		if c := label[u]; c >= 0 && (len(out) == 0 || out[len(out)-1] != c) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// unionOf returns a fresh sorted, duplicate-free union of lists[c] over
// the given labels.
func unionOf(lists [][]hetgraph.NodeID, labels []int32) []hetgraph.NodeID {
	var out []hetgraph.NodeID
	for _, c := range labels {
		out = append(out, lists[c]...)
	}
	if len(labels) > 1 {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}
