package ta

import (
	"sort"

	"expertfind/internal/hetgraph"
)

// This file holds the distributed counterpart of the threshold algorithm:
// merging bounded per-shard partial rankings into a global top-n with a
// provable stopping bound, in the style of the TPUT family of distributed
// top-k algorithms. Each shard owns a disjoint subset of the retrieved
// papers, so an expert's global score R(a) is the sum of per-shard partial
// scores, and a shard that truncates its list to its top-t entries can
// still bound every absent expert's contribution by the largest score it
// omitted.
//
// Nothing in the repository truncates, or has partial scores, any more:
// shards send author lists with their papers and the cluster router runs
// TopExpertsOf over them. The file stays while the benchmark times
// MergePartials (ta.merge_us); ROADMAP item 1(a) deletes both together.

// Partial is one shard's bounded contribution to a distributed ranking:
// its experts with non-zero partial scores, sorted by score descending
// (ties by expert id ascending), possibly truncated.
type Partial struct {
	// Entries holds the shard's top partial scores, each expert at most
	// once. Expert ids are global, shared across shards.
	Entries []Ranking
	// Threshold is an inclusive upper bound on the partial score of any
	// expert absent from Entries. A truncating shard reports the largest
	// score it omitted; an exhaustive shard reports 0.
	Threshold float64
	// Exhausted reports that Entries is the shard's complete non-zero
	// list, so an absent expert's partial score there is exactly 0.
	Exhausted bool
}

// MergeStats reports the outcome of one MergePartials evaluation.
type MergeStats struct {
	// Candidates counts distinct experts across all partials.
	Candidates int
	// Inexact counts candidates whose global score is not fully
	// determined — they are absent from at least one truncated shard.
	Inexact int
	// Satisfied reports that the global threshold bound certified the
	// returned ranking as the exact global top-n. When false the caller
	// must fetch deeper per-shard lists (larger t) and merge again;
	// fully exhausted partials always satisfy the bound.
	Satisfied bool
}

// MergePartials combines per-shard partial rankings into the global top-n.
//
// A candidate's lower bound is the sum of its reported partials (absent
// shards contribute at least 0); its upper bound adds each truncated
// shard's Threshold where it is absent. An expert reported by no shard is
// bounded above by the sum of all truncated thresholds. The merge is
// certified (Satisfied) when at least n candidates have exact scores —
// present in every shard that is not exhausted — and the n-th exact score
// strictly dominates every other candidate's upper bound. Strictness makes
// boundary ties conservative: a candidate whose upper bound merely touches
// the n-th score could tie and win the id tie-break, so such a merge is
// not certified.
//
// The returned ranking is sorted by score descending, ties by expert id
// ascending — the same contract as TopExperts — and is exact whenever
// Satisfied is true. Per-expert sums accumulate in ascending shard order,
// so the result is deterministic for a given set of partials.
func MergePartials(parts []Partial, n int) ([]Ranking, MergeStats) {
	var st MergeStats
	if n <= 0 || len(parts) == 0 {
		st.Satisfied = true
		return nil, st
	}

	idx := map[hetgraph.NodeID]int{}
	var ids []hetgraph.NodeID
	var lowers []float64
	var seen [][]bool
	for si, p := range parts {
		for _, e := range p.Entries {
			ci, ok := idx[e.Expert]
			if !ok {
				ci = len(ids)
				idx[e.Expert] = ci
				ids = append(ids, e.Expert)
				lowers = append(lowers, 0)
				seen = append(seen, make([]bool, len(parts)))
			}
			lowers[ci] += e.Score
			seen[ci][si] = true
		}
	}
	st.Candidates = len(ids)

	// Upper bound on an expert no shard reported at all. Fully exhausted
	// partials leave nothing unknown, so the merge is certified whatever
	// the scores.
	var unseenUB float64
	allExhausted := true
	for _, p := range parts {
		if !p.Exhausted {
			allExhausted = false
			unseenUB += p.Threshold
		}
	}

	exacts := make([]Ranking, 0, len(ids))
	var inexactUB []float64
	for ci, id := range ids {
		exact := true
		ub := lowers[ci]
		for si, p := range parts {
			if !seen[ci][si] && !p.Exhausted {
				exact = false
				ub += p.Threshold
			}
		}
		if exact {
			exacts = append(exacts, Ranking{Expert: id, Score: lowers[ci]})
		} else {
			st.Inexact++
			inexactUB = append(inexactUB, ub)
		}
	}
	sort.Slice(exacts, func(i, j int) bool { return exacts[i].Before(exacts[j]) })

	if len(exacts) < n {
		// Not enough certain candidates to fill n slots: complete only
		// when nothing anywhere remains hidden.
		st.Satisfied = st.Inexact == 0 && unseenUB == 0
		return exacts, st
	}

	ln := exacts[n-1].Score
	ok := allExhausted || unseenUB < ln
	for _, ub := range inexactUB {
		if ub >= ln {
			ok = false
			break
		}
	}
	st.Satisfied = ok
	top := make([]Ranking, n)
	copy(top, exacts[:n])
	return top, st
}
