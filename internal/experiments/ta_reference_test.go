package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// The tests of the §IV-C reference (ta_reference.go) that nothing else
// covers. FuzzTopExpertsEquivalence (internal/ta) holds TopExpertsTA to
// the serving ranker and the naive oracle, ids, order and score bits, for
// every cut n ≥ 1, ties included; these three hold what that check cannot
// see: the n = 0 and empty-list answers, and the early-termination
// statistic and stop depth RunFig7's TA legs report.

// exactFor builds the random-access oracle from the lists themselves.
func exactFor(lists [][]ListEntry, numKeys int) func(int32) float64 {
	acc := make([]float64, numKeys)
	for _, l := range lists {
		for _, e := range l {
			acc[e.Key] += e.Score
		}
	}
	return func(k int32) float64 { return acc[k] }
}

// TestAggregateEdgeCases is the one check that catches Aggregate losing
// its n ≤ 0 guard: the fuzzer never asks for zero experts.
func TestAggregateEdgeCases(t *testing.T) {
	if out, _ := Aggregate(nil, 0, 3, nil); out != nil {
		t.Error("no lists returned results")
	}
	if out, _ := Aggregate([][]ListEntry{{{Key: 0, Score: 1}}}, 1, 0, nil); out != nil {
		t.Error("n=0 returned results")
	}
	// Empty individual lists are fine.
	lists := [][]ListEntry{{}, {{Key: 0, Score: 1}}, {}}
	out, _ := Aggregate(lists, 1, 5, exactFor(lists, 1))
	if len(out) != 1 || out[0].Key != 0 || out[0].Score != 1 {
		t.Errorf("out = %v", out)
	}
}

// TestAggregateStopDepthAtTies pins where the threshold test fires when a
// lower bound ties at the n-th place, the only place the rankings cannot
// show: each instance is built so that one mutation of terminated moves
// TAStats.Depth and EarlyTermination and the others do not.
func TestAggregateStopDepthAtTies(t *testing.T) {
	for _, c := range []struct {
		name  string
		lists [][]ListEntry
		keys  int
		depth int
		early bool
	}{
		// At depth 1 key 0's lower bound 3 equals an unseen key's upper
		// bound 3: the test fires on LB = UB (it would not on LB > UB).
		{"lb equals ub", [][]ListEntry{
			{{0, 2}, {1, 1}},
			{{0, 1}, {2, 1}},
		}, 3, 1, true},
		// At depth 2 key 0 alone holds LB = 3 and is the provisional
		// top-1; list 1 may still hold it, so its own upper bound is 4.
		// It must be left out of UB (counting it in stops at depth 3).
		{"lb-tied key inside the top-n", [][]ListEntry{
			{{0, 3}, {2, 1}, {4, 0.5}},
			{{1, 1}, {3, 1}},
		}, 5, 2, true},
		// At depth 2 keys 0 and 1 tie at LB = 2; key 0 fills the one slot,
		// and key 1, which may still appear in list 0, bounds UB at 2.5,
		// and again at 2.1 at depth 3: the test never fires (leaving every
		// tied key out of UB stops at depth 2).
		{"lb-tied key outside the top-n", [][]ListEntry{
			{{0, 2}, {2, 0.5}, {4, 0.1}},
			{{1, 2}, {3, 0.5}},
		}, 5, 3, false},
	} {
		out, st := Aggregate(c.lists, c.keys, 1, exactFor(c.lists, c.keys))
		if st.Depth != c.depth || st.EarlyTermination != c.early {
			t.Errorf("%s: depth %d, early %v; want depth %d, early %v",
				c.name, st.Depth, st.EarlyTermination, c.depth, c.early)
		}
		if len(out) != 1 || out[0].Key != 0 {
			t.Errorf("%s: top-1 = %v, want key 0", c.name, out)
		}
	}
}

// TestTAEarlyTermination is the one check that catches the threshold
// test's firing going unreported (TAStats.EarlyTermination left false):
// the rankings, and so every equivalence check, are the same either way.
func TestTAEarlyTermination(t *testing.T) {
	// A long retrieved list with a dominant expert: TA should stop before
	// exhausting the lists.
	g := hetgraph.New()
	star := g.AddNode(hetgraph.Author, "star")
	var retrieved []hetgraph.NodeID
	for i := 0; i < 40; i++ {
		p := g.AddNode(hetgraph.Paper, "")
		g.MustAddEdge(star, p, hetgraph.Write)
		// Two co-authors per paper, all distinct.
		for j := 0; j < 2; j++ {
			a := g.AddNode(hetgraph.Author, "")
			g.MustAddEdge(a, p, hetgraph.Write)
		}
		retrieved = append(retrieved, p)
	}
	res, st := TopExpertsTA(g, retrieved, 1)
	if len(res) != 1 || res[0].Expert != star {
		t.Fatalf("top expert = %+v, want the star author", res)
	}
	if !st.EarlyTermination {
		t.Error("TA did not terminate early on a dominated instance")
	}
	if st.Depth >= 3 {
		t.Errorf("TA depth = %d, expected to stop within a couple of rounds", st.Depth)
	}
}

// BenchmarkExpertRankers is the sweep behind DESIGN.md's caveat 7: the
// three rankers over m ranked papers of a fixed number of authors each,
// drawn from a pool of authors, n = 20. The TA rows also report whether
// the threshold test ever fired before the lists were exhausted
// ("early" = 1).
func BenchmarkExpertRankers(b *testing.B) {
	const n = 20
	for _, m := range []int{200, 1000, 5000} {
		for _, perPaper := range []int{3, 10, 50, 200} {
			for _, pool := range []int{500, 5000} {
				rng := rand.New(rand.NewSource(int64(m + perPaper + pool)))
				g := hetgraph.New()
				authors := make([]hetgraph.NodeID, pool)
				for i := range authors {
					authors[i] = g.AddNode(hetgraph.Author, "")
				}
				ranked := make([]hetgraph.NodeID, m)
				for j := range ranked {
					ranked[j] = g.AddNode(hetgraph.Paper, "")
					for _, a := range rng.Perm(pool)[:perPaper] {
						g.MustAddEdge(authors[a], ranked[j], hetgraph.Write)
					}
				}
				want := ta.TopExpertsFullScan(g, ranked, n)
				got, _ := ta.TopExperts(g, ranked, n)
				ref, st := TopExpertsTA(g, ranked, n)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(ref, want) {
					b.Fatalf("m=%d authors=%d pool=%d: the rankers disagree", m, perPaper, pool)
				}
				early := 0.0
				if st.EarlyTermination {
					early = 1
				}
				cell := fmt.Sprintf("m=%d/authors=%d/pool=%d/", m, perPaper, pool)
				b.Run(cell+"TA", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						TopExpertsTA(g, ranked, n)
					}
					b.ReportMetric(early, "early")
				})
				b.Run(cell+"oracle", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ta.TopExpertsFullScan(g, ranked, n)
					}
				})
				b.Run(cell+"scorer", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						ta.TopExperts(g, ranked, n)
					}
				})
			}
		}
	}
}
