package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// The tests of the §IV-C reference (ta_reference.go): the paper's
// Example 5 walkthrough, Theorem 2's correctness against a brute-force
// sum, early termination on dominated instances, and the tie order.

// bruteAggregate is the reference: sum every key's scores, sort, cut.
func bruteAggregate(lists [][]ListEntry, numKeys, n int) []KeyScore {
	acc := make([]float64, numKeys)
	present := make([]bool, numKeys)
	for _, l := range lists {
		for _, e := range l {
			acc[e.Key] += e.Score
			present[e.Key] = true
		}
	}
	var out []KeyScore
	for k := int32(0); int(k) < numKeys; k++ {
		if present[k] {
			out = append(out, KeyScore{Key: k, Score: acc[k]})
		}
	}
	sortKeyScores(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func sortKeyScores(out []KeyScore) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Score > a.Score || (b.Score == a.Score && b.Key < a.Key) {
				out[j-1], out[j] = b, a
			} else {
				break
			}
		}
	}
}

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

// TestAggregateWalkthrough drives the generic TA with a hand-built
// instance in the spirit of the paper's Figure 6 / Example 5: three
// ranked lists, a dominant pair of experts, early termination.
func TestAggregateWalkthrough(t *testing.T) {
	// Keys: 0..4. Lists sorted descending.
	lists := [][]ListEntry{
		{{Key: 0, Score: 0.83}, {Key: 1, Score: 0.40}, {Key: 2, Score: 0.05}},
		{{Key: 3, Score: 0.83}, {Key: 0, Score: 0.45}, {Key: 4, Score: 0.02}},
		{{Key: 1, Score: 0.71}, {Key: 3, Score: 0.30}, {Key: 2, Score: 0.01}},
	}
	got, st := Aggregate(lists, 5, 2, exactFor(lists, 5))
	want := bruteAggregate(lists, 5, 2)
	if len(got) != 2 {
		t.Fatalf("got %d results", len(got))
	}
	for i := range want {
		if got[i].Key != want[i].Key || math.Abs(got[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("rank %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if st.Candidates != 5 || st.Depth == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
}

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

// Property: Aggregate matches the brute-force reference on random
// instances, for every n.
func TestAggregateMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numKeys := 1 + rng.Intn(40)
		numLists := 1 + rng.Intn(25)
		lists := make([][]ListEntry, numLists)
		for j := range lists {
			entries := rng.Intn(6)
			perm := rng.Perm(numKeys)
			if entries > numKeys {
				entries = numKeys
			}
			l := make([]ListEntry, entries)
			for i := 0; i < entries; i++ {
				l[i] = ListEntry{Key: int32(perm[i]), Score: rng.Float64()}
			}
			// Sort descending as the contract requires.
			sortEntriesDesc(l)
			lists[j] = l
		}
		oracle := exactFor(lists, numKeys)
		for _, n := range []int{1, 2, 5, 50} {
			got, _ := Aggregate(lists, numKeys, n, oracle)
			want := bruteAggregate(lists, numKeys, n)
			if len(got) != len(want) {
				t.Fatalf("seed %d n=%d: sizes %d vs %d", seed, n, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i].Key || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
					t.Fatalf("seed %d n=%d rank %d: got %+v, want %+v", seed, n, i, got[i], want[i])
				}
			}
		}
	}
}

func sortEntriesDesc(l []ListEntry) {
	for i := 1; i < len(l); i++ {
		for j := i; j > 0 && l[j].Score > l[j-1].Score; j-- {
			l[j], l[j-1] = l[j-1], l[j]
		}
	}
}

func TestAggregateEarlyTerminationOnDominantKey(t *testing.T) {
	// 30 lists, key 0 leads all of them by a wide margin; the tail keys
	// are all distinct, so TA should stop well before depth 3.
	var lists [][]ListEntry
	key := int32(1)
	for j := 0; j < 30; j++ {
		lists = append(lists, []ListEntry{
			{Key: 0, Score: 1.0},
			{Key: key, Score: 0.01},
			{Key: key + 1, Score: 0.005},
		})
		key += 2
	}
	numKeys := int(key + 1)
	got, st := Aggregate(lists, numKeys, 1, exactFor(lists, numKeys))
	if len(got) != 1 || got[0].Key != 0 {
		t.Fatalf("got %v", got)
	}
	if !st.EarlyTermination {
		t.Error("no early termination on a dominated instance")
	}
}

func TestAggregateTieOrderDeterministic(t *testing.T) {
	// Four keys with identical totals (0.5 each), fed through lists in an
	// order chosen to disagree with key order.
	lists := [][]ListEntry{
		{{Key: 3, Score: 0.5}, {Key: 1, Score: 0.5}},
		{{Key: 0, Score: 0.5}, {Key: 2, Score: 0.5}},
	}
	exact := func(k int32) float64 { return 0.5 }
	for n := 1; n <= 4; n++ {
		out, _ := Aggregate(lists, 4, n, exact)
		if len(out) != n {
			t.Fatalf("n=%d: got %d results", n, len(out))
		}
		for i, ks := range out {
			if ks.Key != int32(i) {
				t.Fatalf("n=%d: tie order broken: result %d is key %d, want %d (out=%v)",
					n, i, ks.Key, i, out)
			}
			if ks.Score != 0.5 {
				t.Fatalf("n=%d: score %v, want 0.5", n, ks.Score)
			}
		}
	}
}

func TestAggregateTieAtTruncationBoundary(t *testing.T) {
	// Keys 1 and 2 tie below key 0; with n=2 the smaller key must win the
	// last slot regardless of list order.
	lists := [][]ListEntry{
		{{Key: 0, Score: 1.0}, {Key: 2, Score: 0.25}},
		{{Key: 2, Score: 0.25}, {Key: 1, Score: 0.5}},
	}
	exact := map[int32]float64{0: 1.0, 1: 0.5, 2: 0.5}
	out, _ := Aggregate(lists, 3, 2, func(k int32) float64 { return exact[k] })
	want := []KeyScore{{Key: 0, Score: 1.0}, {Key: 1, Score: 0.5}}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("boundary tie: got %v, want %v", out, want)
	}
}

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
