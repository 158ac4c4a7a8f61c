package kpcore

import (
	"math/rand"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
)

func TestSearchMultiSinglePathEqualsSearch(t *testing.T) {
	g, n := testgraph.Figure2()
	a := Search(g, n["p4"], 3, hetgraph.PAP)
	b := SearchMulti(g, n["p4"], 3, []hetgraph.MetaPath{hetgraph.PAP})
	if !equalIDs(a.Core, b.Core) || !equalIDs(a.Members, b.Members) || !equalIDs(a.Near, b.Near) {
		t.Error("SearchMulti with one path differs from Search")
	}
}

func TestSearchMultiIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testgraph.Random(rng, 60, 25, 3, 3)
	papers := g.NodesOfType(hetgraph.Paper)
	mps := []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}
	for i := 0; i < 5; i++ {
		s := papers[rng.Intn(len(papers))]
		multi := SearchMulti(g, s, 2, mps)
		pap := Search(g, s, 2, hetgraph.PAP)
		ptp := Search(g, s, 2, hetgraph.PTP)
		// Eq. 8: the common sub-community is the per-path intersection.
		for _, v := range multi.Core {
			if !inCore(pap, v) || !inCore(ptp, v) {
				t.Fatalf("core member %d missing from a per-path core", v)
			}
		}
		for _, v := range pap.Core {
			if inCore(ptp, v) && !inCore(multi, v) {
				t.Fatalf("intersection lost %d", v)
			}
		}
		// The seed always survives (both extensions keep it).
		if !multi.Contains(s) {
			t.Fatal("seed lost from multi-path community")
		}
		// Near pools are unioned.
		nearSet := map[hetgraph.NodeID]bool{}
		for _, v := range multi.Near {
			nearSet[v] = true
		}
		for _, v := range append(append([]hetgraph.NodeID{}, pap.Near...), ptp.Near...) {
			if !nearSet[v] {
				t.Fatalf("near pool missing %d", v)
			}
		}
	}
}

func TestSearchMultiMorePathsSmallerCommunity(t *testing.T) {
	// Adding meta-paths can only shrink the common sub-community — the
	// Table IV explanation for why three paths underperform two.
	rng := rand.New(rand.NewSource(9))
	g := testgraph.Random(rng, 80, 30, 4, 3)
	papers := g.NodesOfType(hetgraph.Paper)
	two := []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}
	three := []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP, hetgraph.PP}
	for i := 0; i < 5; i++ {
		s := papers[rng.Intn(len(papers))]
		c2 := SearchMulti(g, s, 2, two)
		c3 := SearchMulti(g, s, 2, three)
		if len(c3.Core) > len(c2.Core) {
			t.Fatalf("three-path core (%d) larger than two-path core (%d)", len(c3.Core), len(c2.Core))
		}
	}
}

func TestSearchMultiEmptyPathsPanics(t *testing.T) {
	g, n := testgraph.Figure2()
	defer func() {
		if recover() == nil {
			t.Error("empty meta-path list did not panic")
		}
	}()
	SearchMulti(g, n["p1"], 2, nil)
}
