// Package kpcore implements the (k,P)-core machinery of the paper: the
// optimised community search of Algorithm 1 (early pruning + community
// extension), the FastBCore baseline it improves on, the naive
// projection-based core decomposition (Batagelj-Zaversnik), and the
// multi-meta-path common sub-community of §V (Eq. 8).
//
// A (k,P)-core (Definition 5) is the maximal subgraph of the heterogeneous
// graph in which every paper has at least k P-neighbours via meta-path P.
// The searches below return the connected region of that core reachable
// from a seed paper, which is what the sampling stage consumes.
package kpcore

import (
	"fmt"
	"sort"

	"expertfind/internal/hetgraph"
)

// Community is the result of a (k,P)-core community search around a seed
// paper (Algorithm 1).
type Community struct {
	// Seed is the seed paper p_s the search started from.
	Seed hetgraph.NodeID
	// Core lists the strict (k,P)-core members reachable from the seed,
	// sorted by NodeID. The seed itself appears here only if it satisfies
	// the k-constraint.
	Core []hetgraph.NodeID
	// Members is Core plus the extension of §III-A: the seed and all its
	// P-neighbours, even those below the k-constraint. Sorted by NodeID.
	// Positive samples (Definition 6) are drawn from Members.
	Members []hetgraph.NodeID
	// Near lists papers that were touched by the search but pruned for
	// violating the k-constraint (Algorithm 1's delete queue D) and that
	// did not re-enter the community through the extension. They are the
	// near-negative pool of §III-B: close to the community yet outside
	// it. Sorted by NodeID.
	Near []hetgraph.NodeID
}

// Contains reports whether p is a member of the (extended) community.
func (c *Community) Contains(p hetgraph.NodeID) bool {
	i := sort.Search(len(c.Members), func(i int) bool { return c.Members[i] >= p })
	return i < len(c.Members) && c.Members[i] == p
}

// Search runs Algorithm 1: the optimised (k,P)-core community search with
// early pruning of unpromising nodes and the community extension around the
// seed. The strict core it computes equals FastBCore's output (Theorem 1).
//
// It panics if seed is not a paper node or mp is not a paper-paper
// meta-path; k must be non-negative.
func Search(g *hetgraph.Graph, seed hetgraph.NodeID, k int, mp hetgraph.MetaPath) *Community {
	validate(g, seed, k, mp)

	// Phase 1 — candidate selection with early pruning. BFS from the seed,
	// but only expand the search space from papers whose global P-degree
	// meets the k-constraint; papers below it go straight to the near pool
	// (they can never be core members, Theorem 1).
	type cand struct {
		nbrs  []hetgraph.NodeID // Ψ[v]: all P-neighbours of v
		degIn int               // neighbours currently surviving in S
	}
	cands := map[hetgraph.NodeID]*cand{}
	visited := map[hetgraph.NodeID]bool{seed: true}
	var near []hetgraph.NodeID
	queue := []hetgraph.NodeID{seed}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs := g.PNeighbors(v, mp)
		if len(nbrs) < k {
			near = append(near, v)
			// Prune: do not expand from v — except from the seed itself,
			// otherwise a sub-k seed would strand the search before it
			// reaches the core its neighbourhood belongs to.
			if v != seed {
				continue
			}
		} else {
			cands[v] = &cand{nbrs: nbrs}
		}
		for _, u := range nbrs {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}

	// Phase 2 — unpromising nodes prune. Within the candidate set S, peel
	// papers whose surviving in-S degree drops below k, cascading removals
	// like a standard core decomposition.
	for _, c := range cands {
		for _, u := range c.nbrs {
			if _, ok := cands[u]; ok {
				c.degIn++
			}
		}
	}
	var peel []hetgraph.NodeID
	for v, c := range cands {
		if c.degIn < k {
			peel = append(peel, v)
		}
	}
	sort.Slice(peel, func(i, j int) bool { return peel[i] < peel[j] }) // determinism
	removed := map[hetgraph.NodeID]bool{}
	for len(peel) > 0 {
		v := peel[0]
		peel = peel[1:]
		if removed[v] {
			continue
		}
		removed[v] = true
		near = append(near, v)
		for _, u := range cands[v].nbrs {
			cu, ok := cands[u]
			if !ok || removed[u] {
				continue
			}
			cu.degIn--
			if cu.degIn == k-1 {
				peel = append(peel, u)
			}
		}
	}

	// Restrict to the connected region of the core around the seed: a
	// community containing p_s must be connected to it (through core
	// papers, or directly adjacent to the seed), otherwise any inter-area
	// bridge would hand back every dense blob of the graph.
	inCore := func(v hetgraph.NodeID) bool {
		c, ok := cands[v]
		return ok && !removed[v] && c != nil
	}
	coreNbrs := func(v hetgraph.NodeID) []hetgraph.NodeID { return cands[v].nbrs }
	core := coreComponent(g, seed, mp, inCore, coreNbrs)

	// Phase 3 — (k,P)-core extension: the community additionally keeps the
	// seed and every P-neighbour of the seed, relaxing the strict
	// k-constraint around p_s (§III-A, "our solution" optimisation 2).
	memberSet := map[hetgraph.NodeID]bool{seed: true}
	for _, v := range core {
		memberSet[v] = true
	}
	g.ForEachPNeighbor(seed, mp, func(u hetgraph.NodeID) bool {
		memberSet[u] = true
		return true
	})
	members := make([]hetgraph.NodeID, 0, len(memberSet))
	for v := range memberSet {
		members = append(members, v)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

	// A pruned paper that the extension re-admitted is a member, not a
	// near negative — the two sets must stay disjoint or the sampler
	// could emit the same paper as positive and negative.
	kept := near[:0]
	for _, v := range near {
		if !memberSet[v] {
			kept = append(kept, v)
		}
	}
	near = kept
	sort.Slice(near, func(i, j int) bool { return near[i] < near[j] })
	near = dedupSorted(near)

	return &Community{Seed: seed, Core: core, Members: members, Near: near}
}

// FastBCore runs the extended baseline of [30] (§III-A): a labelled BFS
// that collects every paper reachable from the seed via path instances of
// mp — without the early-pruning optimisation — followed by iterative
// removal of papers violating the k-constraint. It returns the strict core,
// sorted by NodeID.
func FastBCore(g *hetgraph.Graph, seed hetgraph.NodeID, k int, mp hetgraph.MetaPath) []hetgraph.NodeID {
	validate(g, seed, k, mp)

	// Step 1 — labelled search: the whole P-connected component of seed.
	visited := map[hetgraph.NodeID]bool{seed: true}
	queue := []hetgraph.NodeID{seed}
	var comp []hetgraph.NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		comp = append(comp, v)
		g.ForEachPNeighbor(v, mp, func(u hetgraph.NodeID) bool {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
			return true
		})
	}

	// Step 2 — cleaning up: peel nodes below the k-constraint, then keep
	// the core region connected to the seed (the community containing
	// p_s, matching Algorithm 1's output).
	survivors, nbrs := peelComponent(g, comp, k, mp)
	return coreComponent(g, seed, mp,
		func(v hetgraph.NodeID) bool { return survivors[v] },
		func(v hetgraph.NodeID) []hetgraph.NodeID { return nbrs[v] })
}

// peelComponent removes papers with fewer than k surviving P-neighbours
// from the node set until a fixpoint, returning the surviving set and the
// cached P-neighbour lists.
func peelComponent(g *hetgraph.Graph, comp []hetgraph.NodeID, k int, mp hetgraph.MetaPath) (map[hetgraph.NodeID]bool, map[hetgraph.NodeID][]hetgraph.NodeID) {
	in := make(map[hetgraph.NodeID]bool, len(comp))
	for _, v := range comp {
		in[v] = true
	}
	deg := make(map[hetgraph.NodeID]int, len(comp))
	nbrs := make(map[hetgraph.NodeID][]hetgraph.NodeID, len(comp))
	for _, v := range comp {
		ns := g.PNeighbors(v, mp)
		nbrs[v] = ns
		d := 0
		for _, u := range ns {
			if in[u] {
				d++
			}
		}
		deg[v] = d
	}
	var queue []hetgraph.NodeID
	for _, v := range comp {
		if deg[v] < k {
			queue = append(queue, v)
		}
	}
	removed := map[hetgraph.NodeID]bool{}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] {
			continue
		}
		removed[v] = true
		for _, u := range nbrs[v] {
			if !in[u] || removed[u] {
				continue
			}
			deg[u]--
			if deg[u] == k-1 {
				queue = append(queue, u)
			}
		}
	}
	survivors := make(map[hetgraph.NodeID]bool, len(comp))
	for _, v := range comp {
		if !removed[v] {
			survivors[v] = true
		}
	}
	return survivors, nbrs
}

// coreComponent returns, sorted, the members of the k-core connected to
// the seed through core nodes: the BFS over the core-induced subgraph
// seeded by the seed itself (when it is a core member) and by the seed's
// core P-neighbours (Example 4 expects the community of a sub-k seed to be
// its neighbouring core). inCore tests membership; coreNbrs returns the
// cached P-neighbours of a core node.
func coreComponent(g *hetgraph.Graph, seed hetgraph.NodeID, mp hetgraph.MetaPath,
	inCore func(hetgraph.NodeID) bool, coreNbrs func(hetgraph.NodeID) []hetgraph.NodeID) []hetgraph.NodeID {
	visited := map[hetgraph.NodeID]bool{}
	var queue []hetgraph.NodeID
	push := func(v hetgraph.NodeID) {
		if inCore(v) && !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	push(seed)
	g.ForEachPNeighbor(seed, mp, func(u hetgraph.NodeID) bool {
		push(u)
		return true
	})
	var out []hetgraph.NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		out = append(out, v)
		for _, u := range coreNbrs(v) {
			push(u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func validate(g *hetgraph.Graph, seed hetgraph.NodeID, k int, mp hetgraph.MetaPath) {
	if g.Type(seed) != hetgraph.Paper {
		panic(fmt.Sprintf("kpcore: seed %d is a %s, not a paper", seed, g.Type(seed)))
	}
	if !mp.IsPaperPaper() {
		panic(fmt.Sprintf("kpcore: meta-path %s is not paper-paper", mp))
	}
	if k < 0 {
		panic(fmt.Sprintf("kpcore: negative k %d", k))
	}
}

func dedupSorted(s []hetgraph.NodeID) []hetgraph.NodeID {
	if len(s) == 0 {
		return s
	}
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
