// Package pgindex implements the paper's proximity-graph document index
// (§IV-A): a kNN graph built with NNDescent [36], refined with
// long-distance neighbour extension and redundant-neighbour removal
// (Algorithm 2), a navigating entry node at the corpus centroid, and the
// greedy best-first search of §IV-B. A brute-force scan is provided as the
// exact baseline ("w/o PG-Index" in Figure 7).
package pgindex

import (
	"math/rand"
	"runtime"
	"sort"

	"expertfind/internal/par"
	"expertfind/internal/vec"
)

// neighbor is one candidate entry in a node's kNN list.
type neighbor struct {
	id    int32
	dist  float64
	isNew bool
}

// knnList is a bounded list of the k closest neighbours found so far,
// kept sorted ascending by distance. k is small (≈10), so insertion by
// shifting beats heap bookkeeping in practice.
type knnList struct {
	k     int
	items []neighbor
}

func newKnnList(k int) *knnList { return &knnList{k: k, items: make([]neighbor, 0, k)} }

// insert adds cand if it improves the list and is not already present.
// It reports whether the list changed.
func (l *knnList) insert(cand neighbor) bool {
	if len(l.items) == l.k && cand.dist >= l.items[len(l.items)-1].dist {
		return false
	}
	for _, it := range l.items {
		if it.id == cand.id {
			return false
		}
	}
	pos := sort.Search(len(l.items), func(i int) bool { return l.items[i].dist > cand.dist })
	if len(l.items) < l.k {
		l.items = append(l.items, neighbor{})
	}
	copy(l.items[pos+1:], l.items[pos:])
	l.items[pos] = cand
	return true
}

// proposal is one candidate edge produced by a parallel local join.
type proposal struct {
	a, b int32
	dist float64
}

// nnDescent builds a kNN graph over embs (dense indices) and returns each
// node's k nearest neighbour ids. It follows Dong et al.'s local-join
// scheme: initialise with random neighbours, then repeatedly join each
// node's new neighbours against its general (forward+reverse) neighbours,
// stopping when an iteration's update count falls below delta·n·k.
//
// Distance evaluation — the dominant cost — runs in parallel over fixed
// node chunks; proposals are applied in chunk order, so the result is
// deterministic for a given seed regardless of GOMAXPROCS.
func nnDescent(embs *vec.Matrix32, k, maxIters int, rng *rand.Rand) [][]int32 {
	n := embs.Rows
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		out := make([][]int32, n)
		return out
	}
	lists := make([]*knnList, n)
	for i := range lists {
		lists[i] = newKnnList(k)
	}
	// Random initialisation.
	for i := 0; i < n; i++ {
		for len(lists[i].items) < k {
			j := int32(rng.Intn(n))
			if int(j) == i {
				continue
			}
			lists[i].insert(neighbor{id: j, dist: pairDist(embs, int32(i), j), isNew: true})
		}
	}

	const delta = 0.001
	const chunkSize = 256

	for iter := 0; iter < maxIters; iter++ {
		// Collect per-node new and old neighbour sets, including reverse
		// edges (the "general" neighbourhood of the paper).
		newN := make([][]int32, n)
		oldN := make([][]int32, n)
		for i := 0; i < n; i++ {
			for li := range lists[i].items {
				it := &lists[i].items[li]
				if it.isNew {
					newN[i] = append(newN[i], it.id)
					newN[it.id] = append(newN[it.id], int32(i))
					it.isNew = false
				} else {
					oldN[i] = append(oldN[i], it.id)
					oldN[it.id] = append(oldN[it.id], int32(i))
				}
			}
		}
		updates := 0
		for lo := 0; lo < n; lo += chunkSize {
			hi := lo + chunkSize
			if hi > n {
				hi = n
			}
			// Parallel phase: enumerate candidate pairs of this chunk and
			// price them against the lists as of the chunk start.
			props := make([][]proposal, hi-lo)
			par.Chunks(hi-lo, runtime.GOMAXPROCS(0), func(_, s, e int) {
				for i := s; i < e; i++ {
					props[i] = joinCandidates(embs, dedupIDs(newN[lo+i]), dedupIDs(oldN[lo+i]))
				}
			})
			// Sequential phase: apply proposals in node order.
			for _, ps := range props {
				for _, p := range ps {
					if lists[p.a].insert(neighbor{id: p.b, dist: p.dist, isNew: true}) {
						updates++
					}
					if lists[p.b].insert(neighbor{id: p.a, dist: p.dist, isNew: true}) {
						updates++
					}
				}
			}
		}
		if float64(updates) < delta*float64(n)*float64(k) {
			break
		}
	}

	out := make([][]int32, n)
	for i := range lists {
		ids := make([]int32, len(lists[i].items))
		for j, it := range lists[i].items {
			ids[j] = it.id
		}
		out[i] = ids
	}
	return out
}

// joinCandidates produces the local-join proposals of one node: new x new
// and new x old pairs among its general neighbours, with distances.
func joinCandidates(embs *vec.Matrix32, nn, on []int32) []proposal {
	var out []proposal
	for ai, a := range nn {
		for _, b := range nn[ai+1:] {
			if a != b {
				out = append(out, proposal{a: a, b: b, dist: pairDist(embs, a, b)})
			}
		}
		for _, b := range on {
			if a != b {
				out = append(out, proposal{a: a, b: b, dist: pairDist(embs, a, b)})
			}
		}
	}
	return out
}

// pairDist is the squared distance between two dense rows, widened to the
// float64 the kNN lists order by.
func pairDist(embs *vec.Matrix32, a, b int32) float64 {
	return float64(vec.L2Sq32(embs.Row(int(a)), embs.Row(int(b))))
}

func dedupIDs(ids []int32) []int32 {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
