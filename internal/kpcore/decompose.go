package kpcore

import (
	"sort"

	"expertfind/internal/hetgraph"
)

// Decomposition holds the full core decomposition of a homogeneous
// projection: for every paper its core number (the largest k such that the
// paper belongs to the k-core).
type Decomposition struct {
	homo *hetgraph.HomoGraph
	// CoreNumber maps each projected paper to its core number.
	CoreNumber map[hetgraph.NodeID]int
}

// Decompose runs the Batagelj-Zaversnik O(m) core decomposition [29] over
// the homogeneous projection h. This is the engine of the "straightforward
// solution" of §III-A: convert G to G' along the meta-path, then read any
// k-core off the decomposition.
func Decompose(h *hetgraph.HomoGraph) *Decomposition {
	n := h.NumNodes()
	deg := make([]int, n)
	maxDeg := 0
	for i, p := range h.Nodes {
		deg[i] = len(h.Adj[p])
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}

	// Bucket sort nodes by degree (bin[d] is the first position of degree-d
	// nodes in the sorted order), then peel in increasing degree order.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)  // position of node i in vert
	vert := make([]int, n) // nodes sorted by current degree
	for i := 0; i < n; i++ {
		pos[i] = bin[deg[i]]
		vert[pos[i]] = i
		bin[deg[i]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0

	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, q := range h.Adj[h.Nodes[v]] {
			u, ok := h.Index(q)
			if !ok {
				continue
			}
			if core[u] > core[v] {
				// Move u one bucket down: swap it with the first node of
				// its current degree bucket, then shrink its degree.
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				core[u]--
			}
		}
	}

	d := &Decomposition{homo: h, CoreNumber: make(map[hetgraph.NodeID]int, n)}
	for i, p := range h.Nodes {
		d.CoreNumber[p] = core[i]
	}
	return d
}

// KCoreAround returns the k-core region connected to seed through core
// nodes, sorted by NodeID: the same community semantics as Algorithm 1 and
// FastBCore, so the naive-baseline equivalence tests can compare them
// directly. The BFS runs on the core-induced subgraph, seeded by the seed
// itself (when a core member) and by its core neighbours.
func (d *Decomposition) KCoreAround(seed hetgraph.NodeID, k int) []hetgraph.NodeID {
	if _, ok := d.homo.Index(seed); !ok {
		return nil
	}
	inCore := func(v hetgraph.NodeID) bool { return d.CoreNumber[v] >= k }
	visited := map[hetgraph.NodeID]bool{}
	var queue []hetgraph.NodeID
	push := func(v hetgraph.NodeID) {
		if inCore(v) && !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	push(seed)
	for _, u := range d.homo.Adj[seed] {
		push(u)
	}
	var out []hetgraph.NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, u := range d.homo.Adj[v] {
			push(u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NaiveSearch is the straightforward solution of §III-A: project the whole
// heterogeneous graph along mp, run the full core decomposition, and return
// the k-core members in the seed's component. It produces the same strict
// core as FastBCore at a much higher cost, and exists as the correctness
// oracle and cost baseline for the benchmarks.
func NaiveSearch(g *hetgraph.Graph, seed hetgraph.NodeID, k int, mp hetgraph.MetaPath) []hetgraph.NodeID {
	validate(g, seed, k, mp)
	h := hetgraph.Project(g, mp)
	return Decompose(h).KCoreAround(seed, k)
}
