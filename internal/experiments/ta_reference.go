package experiments

import (
	"slices"
	"sort"

	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// This file holds the paper's §IV-C ranker as a reference: an NRA-style
// threshold algorithm over m descending-sorted score lists (Theorem 2)
// and its adaptation to ranked papers. It is not on the serving path —
// ta.TopExperts sums and selects instead, because each ranked list here
// is one paper's handful of authors and the threshold test cannot fire
// before the lists are exhausted (DESIGN.md, caveat 7, has the
// (m × authors/paper × pool) sweep). RunFig7 ranks through it for the
// "+TA" legs, and ta's equivalence fuzz checks the serving ranker
// against it.

// ListEntry is one (key, score) pair of a ranked list. Keys are dense
// candidate indices assigned by the caller.
type ListEntry struct {
	Key   int32
	Score float64
}

// KeyScore is one aggregated result.
type KeyScore struct {
	Key   int32
	Score float64
}

// TAStats reports the work done by one threshold-algorithm run.
type TAStats struct {
	// Candidates is |C|, the number of distinct candidate keys.
	Candidates int
	// SortedAccesses counts entries read from the ranked lists before
	// termination.
	SortedAccesses int
	// Depth is the list depth reached when the threshold test fired.
	Depth int
	// EarlyTermination reports whether TA stopped before exhausting the
	// lists.
	EarlyTermination bool
}

// Aggregate returns the n keys with the largest summed scores across the
// lists, assuming every list is sorted descending by score and scores are
// non-negative (absent keys contribute zero — the S(a,p)=0 convention).
// numKeys bounds the key space; exact(key) must return the key's true
// total. It is called for keys whose accumulated sum is incomplete when
// the threshold test fires (Theorem 2), and once more for each returned
// key so published scores carry exact()'s summation-order bits rather
// than the scan's (see the canonicalisation note below).
//
// Results are sorted by score descending, ties by key ascending. The
// stats report the sorted accesses performed and whether the scan stopped
// before exhausting the lists.
func Aggregate(lists [][]ListEntry, numKeys, n int, exact func(int32) float64) ([]KeyScore, TAStats) {
	st := TAStats{Candidates: numKeys}
	if n <= 0 || len(lists) == 0 || numKeys == 0 {
		return nil, st
	}

	// Per key: the accumulated lower bound, whether any list has shown it,
	// and the lists that have — one CSR buffer sliced by the per-key
	// occurrence counts instead of a slice per key.
	acc := make([]float64, numKeys)
	seen := make([]bool, numKeys)
	occur := make([]int32, numKeys)
	offsets := make([]int32, numKeys)
	seenCount := make([]int32, numKeys)
	frontier := make([]float64, len(lists))
	total, maxDepth := 0, 0
	for _, l := range lists {
		total += len(l)
		maxDepth = max(maxDepth, len(l))
		for _, e := range l {
			occur[e.Key]++
		}
	}
	seenBuf := make([]int32, total)
	var off int32
	for k := range offsets {
		offsets[k] = off
		off += occur[k]
	}
	var maxAcc float64 // largest accumulated sum so far: caps every LB
	var lows []float64

	// terminated applies the NRA termination check: LB (the n-th largest
	// lower bound) must be >= UB (the greatest upper bound among all other
	// candidates, including the bound Σ_j frontier_j on never-seen keys).
	terminated := func() bool {
		// Cheap O(lists) pre-check: UB is at least the frontier sum (an
		// unseen key could sit just below every frontier), and LB is at
		// most the largest accumulated sum, so if Σ frontier exceeds
		// max(acc) the full test cannot fire. Early rounds, where the
		// frontiers are still fat, skip the O(candidates) passes below.
		var totalFrontier float64
		for _, f := range frontier {
			totalFrontier += f
		}
		if totalFrontier > maxAcc {
			return false
		}

		lows = lows[:0]
		for k, lo := range acc {
			if seen[k] {
				lows = append(lows, lo)
			}
		}
		if len(lows) < n {
			return false
		}
		sort.Float64s(lows)
		lb := lows[len(lows)-n]

		// Upper bound of an unseen key: it could sit just below the
		// frontier of every list.
		ub := totalFrontier

		// Identify the provisional top-n: everyone strictly above lb, plus
		// enough lb-tied keys (smallest first) to fill n slots.
		above := 0
		for k, lo := range acc {
			if seen[k] && lo > lb {
				above++
			}
		}
		ties := n - above

		// Upper bound of each seen key outside the provisional top-n: its
		// accumulated part plus the frontier of every list it has not
		// appeared in, i.e. lo + totalFrontier - Σ_{j seen} frontier_j.
		for k, lo := range acc {
			if !seen[k] || lo > lb {
				continue
			}
			if lo == lb && ties > 0 {
				ties--
				continue
			}
			u := lo + totalFrontier
			for _, j := range seenBuf[offsets[k] : offsets[k]+seenCount[k]] {
				u -= frontier[j]
			}
			if u > ub {
				ub = u
			}
		}
		return lb >= ub
	}

	for depth := 0; depth < maxDepth; {
		for j, l := range lists {
			if depth < len(l) {
				e := l[depth]
				st.SortedAccesses++
				acc[e.Key] += e.Score
				maxAcc = max(maxAcc, acc[e.Key])
				seen[e.Key] = true
				seenBuf[offsets[e.Key]+seenCount[e.Key]] = int32(j)
				seenCount[e.Key]++
				frontier[j] = e.Score
			} else {
				frontier[j] = 0
			}
		}
		depth++
		st.Depth = depth
		if terminated() {
			st.EarlyTermination = depth < maxDepth
			break
		}
	}

	out := make([]KeyScore, 0, numKeys)
	for k := int32(0); int(k) < numKeys; k++ {
		if !seen[k] {
			continue
		}
		score := acc[k]
		if seenCount[k] != occur[k] {
			score = exact(k)
		}
		out = append(out, KeyScore{Key: k, Score: score})
	}
	sortKeyScoresDesc(out)
	if len(out) > n {
		out = out[:n]
	}
	// Canonicalise the returned scores: the accumulated sums above depend
	// on the order the scan happened to consume entries (and whether the
	// threshold fired before a key's last entry), so two runs reaching the
	// same winners can disagree in the last ulp. Re-scoring every returned
	// key through exact() — whose summation order is fixed by the caller —
	// makes the published scores a pure function of the input.
	for i := range out {
		out[i].Score = exact(out[i].Key)
	}
	sortKeyScoresDesc(out)
	return out, st
}

func sortKeyScoresDesc(out []KeyScore) {
	slices.SortFunc(out, func(a, b KeyScore) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
}

// buildLists materialises the m ranked lists of Figure 6, one per
// retrieved paper, restricted to experts with non-zero score (a paper's
// own authors; all other candidates implicitly score zero, exactly the
// S(a,p_j)=0 convention of the paper). The Zipf weight is strictly
// decreasing in author rank, so each list is already in descending score
// order. Dense keys are assigned in ascending NodeID order (sort-and-
// compact plus binary search), so Aggregate's key tie-break is the NodeID
// tie-break of ta.Ranking.Before. It returns the lists and the NodeID of
// every key.
func buildLists(g *hetgraph.Graph, papers []hetgraph.NodeID) ([][]ListEntry, []hetgraph.NodeID) {
	total := 0
	for _, p := range papers {
		total += len(g.AuthorsOf(p))
	}
	ids := make([]hetgraph.NodeID, 0, total)
	for _, p := range papers {
		ids = append(ids, g.AuthorsOf(p)...)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)

	// All entries live in one flat arena sliced per paper.
	arena := make([]ListEntry, 0, total)
	lists := make([][]ListEntry, 0, len(papers))
	for j, p := range papers {
		authors := g.AuthorsOf(p)
		start := len(arena)
		for i, a := range authors {
			k, _ := slices.BinarySearch(ids, a)
			arena = append(arena, ListEntry{Key: int32(k), Score: ta.ExpertScore(j+1, i+1, len(authors))})
		}
		lists = append(lists, arena[start:len(arena):len(arena)])
	}
	return lists, ids
}

// TopExpertsTA runs the TA-based top-n expert finding of §IV-C over the
// ranked retrieved papers (rank 1 first). It maintains upper and lower
// bounds of R(a) per visited expert (Eq. 7) and terminates as soon as the
// n-th largest lower bound is at least every other candidate's upper bound
// (Theorem 2). The returned experts carry their exact scores — summed in
// ascending paper rank, the order ta.TopExperts sums in — descending, ties
// by NodeID: the same ranking ta.TopExperts returns, bit for bit.
func TopExpertsTA(g *hetgraph.Graph, papers []hetgraph.NodeID, n int) ([]ta.Ranking, TAStats) {
	lists, ids := buildLists(g, papers)

	// Random-access scorer: R(a) re-summed in ascending paper rank from a
	// per-key contribution index (CSR over one flat buffer, filled in
	// ascending paper rank so the prefix order is the summation order),
	// built on the first call.
	var coff, ccnt []int32
	var cbuf []float64
	exact := func(key int32) float64 {
		if cbuf == nil {
			total := 0
			ccnt = make([]int32, len(ids))
			for _, l := range lists {
				total += len(l)
				for _, e := range l {
					ccnt[e.Key]++
				}
			}
			coff = make([]int32, len(ids))
			var off int32
			for k := range coff {
				coff[k] = off
				off += ccnt[k]
				ccnt[k] = 0
			}
			cbuf = make([]float64, total)
			for _, l := range lists {
				for _, e := range l {
					cbuf[coff[e.Key]+ccnt[e.Key]] = e.Score
					ccnt[e.Key]++
				}
			}
		}
		var r float64
		for _, s := range cbuf[coff[key] : coff[key]+ccnt[key]] {
			r += s
		}
		return r
	}

	top, st := Aggregate(lists, len(ids), n, exact)
	if len(top) == 0 {
		return nil, st
	}
	out := make([]ta.Ranking, len(top))
	for i, ks := range top {
		out[i] = ta.Ranking{Expert: ids[ks.Key], Score: ks.Score}
	}
	return out, st
}
