package ta_test

import (
	"math"
	"math/rand"
	"testing"

	"expertfind/internal/experiments"
	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// randomRanked builds a small author-paper graph and a ranked list over
// it from (seed, shape). Author lists have 0..6 entries (papers with no
// authors included); shape bit 0 puts one prolific author on about half
// the papers, bit 1 gives every paper two fresh authors instead — the
// arrangement whose Zipf arithmetic ties exactly (the second author of
// the rank-j paper and the first author of the rank-2j paper both score
// 1/(3j)), so every cut n lands on or beside a tie.
func randomRanked(seed int64, shape, nPapers, nAuthors, m uint8) (*hetgraph.Graph, []hetgraph.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	g := hetgraph.New()
	authors := make([]hetgraph.NodeID, 1+int(nAuthors)%40)
	for i := range authors {
		authors[i] = g.AddNode(hetgraph.Author, "")
	}
	papers := make([]hetgraph.NodeID, 1+int(nPapers)%80)
	for i := range papers {
		p := g.AddNode(hetgraph.Paper, "")
		papers[i] = p
		if shape&2 != 0 {
			for k := 0; k < 2; k++ {
				g.MustAddEdge(g.AddNode(hetgraph.Author, ""), p, hetgraph.Write)
			}
			continue
		}
		perm := rng.Perm(len(authors))[:rng.Intn(min(7, len(authors)+1))]
		if shape&1 != 0 && rng.Intn(2) == 0 {
			perm = append(perm, 0)
		}
		seen := map[int]bool{}
		for _, a := range perm {
			if !seen[a] {
				seen[a] = true
				g.MustAddEdge(authors[a], p, hetgraph.Write)
			}
		}
	}
	ranked := make([]hetgraph.NodeID, 0, len(papers))
	for _, i := range rng.Perm(len(papers))[:1+int(m)%len(papers)] {
		ranked = append(ranked, papers[i])
	}
	return g, ranked
}

// checkEquivalence holds the three rankers to one answer for every cut
// n = 1 .. candidates+1 (n = 1, every boundary, n > candidates): the
// serving ranker, the naive map+sort oracle and the paper's threshold
// algorithm must agree on ids, order and score bits.
func checkEquivalence(t *testing.T, g *hetgraph.Graph, ranked []hetgraph.NodeID) {
	t.Helper()
	distinct := map[hetgraph.NodeID]bool{}
	entries, longest := 0, 0
	for _, p := range ranked {
		as := g.AuthorsOf(p)
		entries += len(as)
		longest = max(longest, len(as))
		for _, a := range as {
			distinct[a] = true
		}
	}
	for n := 1; n <= len(distinct)+1; n++ {
		got, st := ta.TopExperts(g, ranked, n)
		if st.Candidates != len(distinct) || st.SortedAccesses != entries || st.Depth != longest {
			t.Fatalf("n=%d: stats %+v, want %d candidates, %d entries, longest list %d",
				n, st, len(distinct), entries, longest)
		}
		oracle := ta.TopExpertsFullScan(g, ranked, n)
		ref, _ := experiments.TopExpertsTA(g, ranked, n)
		if len(got) != min(n, len(distinct)) || len(oracle) != len(got) || len(ref) != len(got) {
			t.Fatalf("n=%d of %d candidates: %d experts, oracle %d, TA %d",
				n, len(distinct), len(got), len(oracle), len(ref))
		}
		for i := range got {
			for name, other := range map[string]ta.Ranking{"oracle": oracle[i], "TA": ref[i]} {
				if got[i].Expert != other.Expert ||
					math.Float64bits(got[i].Score) != math.Float64bits(other.Score) {
					t.Fatalf("n=%d rank %d: TopExperts %+v, %s %+v", n, i, got[i], name, other)
				}
			}
		}
	}
}

// FuzzTopExpertsEquivalence is the generated form of Theorem 2's
// correctness and of the tie contract: on any small graph and ranked list
// TopExperts ≡ TopExpertsFullScan ≡ the TA reference, bit for bit.
func FuzzTopExpertsEquivalence(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint8(50+seed), uint8(30), uint8(5+3*seed))
	}
	f.Add(int64(1), uint8(2), uint8(79), uint8(0), uint8(79)) // all ties
	f.Add(int64(2), uint8(0), uint8(0), uint8(0), uint8(0))   // one paper, one author at most
	f.Fuzz(func(t *testing.T, seed int64, shape, nPapers, nAuthors, m uint8) {
		g, ranked := randomRanked(seed, shape, nPapers, nAuthors, m)
		checkEquivalence(t, g, ranked)
	})
}
