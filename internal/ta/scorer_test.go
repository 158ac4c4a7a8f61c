package ta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expertfind/internal/ctxtest"
	"expertfind/internal/hetgraph"
)

// scorerGraph builds nAuthors authors, then nPapers papers of 1..6 of them,
// and a ranked list over m of the papers. Authors come first, so their ids
// are the low keys every ranking over any such graph shares: a slot left
// set by one ranking is one the next ranking reads.
func scorerGraph(rng *rand.Rand, nAuthors, nPapers, m int) (*hetgraph.Graph, []hetgraph.NodeID) {
	g := hetgraph.New()
	for i := 0; i < nAuthors; i++ {
		g.AddNode(hetgraph.Author, "")
	}
	papers := make([]hetgraph.NodeID, nPapers)
	for i := range papers {
		papers[i] = g.AddNode(hetgraph.Paper, "")
		for k := 1 + rng.Intn(6); k > 0; k-- {
			if a := hetgraph.NodeID(rng.Intn(nAuthors)); !slices.Contains(g.AuthorsOf(papers[i]), a) {
				g.MustAddEdge(a, papers[i], hetgraph.Write)
			}
		}
	}
	ranked := make([]hetgraph.NodeID, m)
	for i, j := range rng.Perm(nPapers)[:m] {
		ranked[i] = papers[j]
	}
	return g, ranked
}

// sameAsFullScan reports the first cut n at which TopExperts and the
// oracle differ in an id, an order or a score bit.
func sameAsFullScan(g *hetgraph.Graph, ranked []hetgraph.NodeID) error {
	for _, n := range []int{1, 5, math.MaxInt32} {
		got, _ := TopExperts(g, ranked, n)
		want := TopExpertsFullScan(g, ranked, n)
		if len(got) != len(want) {
			return fmt.Errorf("n=%d: %d experts, oracle %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Expert != want[i].Expert || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				return fmt.Errorf("n=%d rank %d: %+v, oracle %+v", n, i+1, got[i], want[i])
			}
		}
	}
	return nil
}

// TestScoresScratchReuse: the pooled accumulator comes back clean from
// every exit. Four goroutines each rank graphs of different sizes back to
// back, cancel a ranking after it has summed pollEvery papers and rank
// again, and add a paper whose new author's id is past the table a
// previous ranking sized; every answer must be the oracle's, bit for bit.
// A slot a cancelled ranking left set would add a later ranking's score
// into a stale sum, or index past the sums.
func TestScoresScratchReuse(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 20; round++ {
				nAuthors := 20 + rng.Intn(300)
				g, ranked := scorerGraph(rng, nAuthors, pollEvery+50+rng.Intn(300), pollEvery+10+rng.Intn(40))
				ctx := ctxtest.New(2) // the poll after the first pollEvery papers
				if out, _, err := TopExpertsCtx(ctx, g, ranked, 5); !errors.Is(err, context.Canceled) || out != nil {
					t.Errorf("worker %d round %d: cancelled ranking returned %v, %v", w, round, out, err)
					return
				}
				if err := sameAsFullScan(g, ranked); err != nil {
					t.Errorf("worker %d round %d, after a cancelled ranking: %v", w, round, err)
					return
				}
				old := g.NumNodes()
				for i := 0; i < old/4; i++ { // past the headroom of a table sized for the old graph
					g.AddNode(hetgraph.Venue, "")
				}
				p := g.AddNode(hetgraph.Paper, "")
				a := g.AddNode(hetgraph.Author, "")
				g.MustAddEdge(hetgraph.NodeID(rng.Intn(nAuthors)), p, hetgraph.Write)
				g.MustAddEdge(a, p, hetgraph.Write)
				if err := sameAsFullScan(g, append([]hetgraph.NodeID{p}, ranked...)); err != nil {
					t.Errorf("worker %d round %d, new author %d past %d nodes: %v", w, round, a, old, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

var rankSink []Ranking

// BenchmarkTopExperts times the scorer alone at the query_pg shape: m = 200
// retrieved papers of 1..6 authors over a 5 000-paper graph, n = 10.
func BenchmarkTopExperts(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, _ := scorerGraph(rng, 3000, 5000, 1)
	lists := make([][]hetgraph.NodeID, 64)
	for i := range lists {
		lists[i] = make([]hetgraph.NodeID, 200)
		for j, k := range rng.Perm(5000)[:200] {
			lists[i][j] = hetgraph.NodeID(3000 + k) // the papers follow the authors
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink, _ = TopExperts(g, lists[i%len(lists)], 10)
	}
}
