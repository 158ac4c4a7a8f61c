package hetgraph

import (
	"fmt"
	"runtime"
	"slices"

	"expertfind/internal/par"
)

// HomoGraph is the homogeneous paper-paper graph G' obtained by projecting
// a heterogeneous graph along a meta-path (the "straightforward solution"
// of §III-A, and the substrate of the homogeneous-embedding baselines).
// Nodes are paper NodeIDs of the source graph; adjacency is deduplicated
// and symmetric.
type HomoGraph struct {
	// Nodes lists the projected nodes (papers) in source-graph order.
	Nodes []NodeID
	// Adj maps each node to its deduplicated neighbour list.
	Adj map[NodeID][]NodeID
	// index[p] is the position of node p in Nodes, -1 for a node of the
	// source graph that is not projected.
	index []int32
}

// Project materialises the full homogeneous graph for meta-path mp: every
// paper's P-neighbours, each list in PNeighbors' order. The (k,P)-core
// index (kpcore.NewCoreIndex) and the naive (k,P)-core search project
// through it; Algorithm 1 itself only walks the P-neighbours it needs.
//
// The papers are walked on up to GOMAXPROCS goroutines, each over a
// contiguous chunk and writing only its papers' lists, so the projection
// is the same however the work is split.
func Project(g *Graph, mp MetaPath) *HomoGraph { return project(g, mp, 0) }

// project is Project with every walker's stamp generation starting at
// gen0, so that a test can make the generation wrap.
func project(g *Graph, mp MetaPath, gen0 uint32) *HomoGraph {
	if !mp.IsPaperPaper() {
		panic(fmt.Sprintf("hetgraph: projection requires a paper-paper meta-path, got %s", mp))
	}
	papers := g.NodesOfType(Paper)
	h := &HomoGraph{
		Nodes: papers,
		Adj:   make(map[NodeID][]NodeID, len(papers)),
		index: make([]int32, g.NumNodes()),
	}
	adj := make([][]NodeID, len(papers))
	par.Chunks(len(papers), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		w := &pwalker{g: g, stamp: make([]uint32, g.NumNodes()), gen: gen0}
		var buf []NodeID
		for i := lo; i < hi; i++ {
			buf = w.appendPNeighbors(buf[:0], papers[i], mp)
			if len(buf) > 0 {
				adj[i] = slices.Clone(buf)
			}
		}
	})
	for i := range h.index {
		h.index[i] = -1
	}
	for i, p := range papers {
		h.index[p] = int32(i)
		h.Adj[p] = adj[i]
	}
	return h
}

// pwalker is ForEachPNeighbor's layered walk for a goroutine that walks
// many papers. A node is seen in the current hop when its stamp equals
// gen, so starting a hop is an increment rather than a fresh set.
type pwalker struct {
	g              *Graph
	stamp          []uint32 // indexed by NodeID
	gen            uint32
	frontier, next []NodeID
}

// appendPNeighbors appends the P-neighbours of u via mp to out, in the
// order ForEachPNeighbor visits them.
func (w *pwalker) appendPNeighbors(out []NodeID, u NodeID, mp MetaPath) []NodeID {
	w.frontier = append(w.frontier[:0], u)
	for hop := 1; hop <= mp.Len(); hop++ {
		w.gen++
		if w.gen == 0 {
			// Wrapped: a stamp left from 2^32 hops ago would read as seen.
			clear(w.stamp)
			w.gen = 1
		}
		w.next = w.next[:0]
		last := hop == mp.Len()
		for _, x := range w.frontier {
			for _, y := range w.g.Neighbors(x, mp.types[hop]) {
				if w.stamp[y] == w.gen || (last && y == u) {
					continue
				}
				w.stamp[y] = w.gen
				if last {
					out = append(out, y)
				} else {
					w.next = append(w.next, y)
				}
			}
		}
		w.frontier, w.next = w.next, w.frontier
	}
	return out
}

// NumNodes returns the number of projected nodes.
func (h *HomoGraph) NumNodes() int { return len(h.Nodes) }

// NumEdges returns the number of undirected projected edges.
func (h *HomoGraph) NumEdges() int {
	n := 0
	for _, nbrs := range h.Adj {
		n += len(nbrs)
	}
	return n / 2
}

// Index returns the dense position of node p in Nodes, and whether p is a
// projected node.
func (h *HomoGraph) Index(p NodeID) (int, bool) {
	if p < 0 || int(p) >= len(h.index) || h.index[p] < 0 {
		return 0, false
	}
	return int(h.index[p]), true
}
