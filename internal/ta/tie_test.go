package ta

import (
	"reflect"
	"testing"

	"expertfind/internal/hetgraph"
)

// The cluster router merges per-shard rankings and asserts bit-identical
// results against the single-node path, so equal-score candidates must
// rank deterministically everywhere: score descending, then key/NodeID
// ascending. These tests pin that contract at every layer.

// tieGraph builds two 2-author papers whose Zipf/rank arithmetic yields an
// exact score tie: S(rank-1 paper, author 2) = 1/(2·H(2)) = S(rank-2
// paper, author 1). tiedFirst selects which of the two tied authors gets
// the smaller NodeID, so tests can show the order is decided by NodeID,
// not by which paper the score came from.
func tieGraph(t *testing.T, tiedFirst bool) (*hetgraph.Graph, []hetgraph.NodeID, [2]hetgraph.NodeID) {
	t.Helper()
	g := hetgraph.New()
	a0 := g.AddNode(hetgraph.Author, "lead1")
	x := g.AddNode(hetgraph.Author, "tiedA") // ids 1 and 2: the tied pair
	y := g.AddNode(hetgraph.Author, "tiedB")
	a3 := g.AddNode(hetgraph.Author, "tail2")
	p1 := g.AddNode(hetgraph.Paper, "p1")
	p2 := g.AddNode(hetgraph.Paper, "p2")
	second, first2 := x, y // p1's 2nd author, p2's 1st author
	if !tiedFirst {
		second, first2 = y, x
	}
	g.MustAddEdge(p1, a0, hetgraph.Write)
	g.MustAddEdge(p1, second, hetgraph.Write)
	g.MustAddEdge(p2, first2, hetgraph.Write)
	g.MustAddEdge(p2, a3, hetgraph.Write)
	return g, []hetgraph.NodeID{p1, p2}, [2]hetgraph.NodeID{x, y}
}

func TestTopExpertsTieOrderMatchesFullScan(t *testing.T) {
	for _, tiedFirst := range []bool{true, false} {
		g, papers, tied := tieGraph(t, tiedFirst)
		fs := TopExpertsFullScan(g, papers, 4)
		res, _ := TopExperts(g, papers, 4)
		if !reflect.DeepEqual(fs, res) {
			t.Fatalf("tiedFirst=%v: TA %v != full scan %v", tiedFirst, res, fs)
		}
		// Positions 2 and 3 (after the rank-1 lead author) carry the tied
		// score 1/(2·H(2)); the smaller NodeID must always come first,
		// regardless of which paper produced its score.
		if res[1].Score != res[2].Score {
			t.Fatalf("tiedFirst=%v: expected tie at positions 1,2: %v", tiedFirst, res)
		}
		if res[1].Expert != tied[0] || res[2].Expert != tied[1] {
			t.Fatalf("tiedFirst=%v: tie order %v, want experts %v then %v",
				tiedFirst, res, tied[0], tied[1])
		}
	}
}

func TestTopExpertsTieTruncation(t *testing.T) {
	// Truncating inside the tied pair must keep the smaller NodeID — the
	// same one a merged cluster ranking keeps.
	g, papers, tied := tieGraph(t, false)
	full, _ := TopExperts(g, papers, 4)
	for n := 1; n < 4; n++ {
		got, _ := TopExperts(g, papers, n)
		if !reflect.DeepEqual(got, full[:n]) {
			t.Fatalf("n=%d: got %v, want prefix %v", n, got, full[:n])
		}
	}
	if top2, _ := TopExperts(g, papers, 2); top2[1].Expert != tied[0] {
		t.Fatalf("truncation dropped the smaller tied NodeID: %v", top2)
	}
}
