package hetgraph

import (
	"sort"
	"testing"
)

// figure2Core builds the co-authorship skeleton of the paper's Figure 2
// inside the package (the richer fixture lives in testgraph, which cannot
// be imported here without a cycle).
func figure2Core(t *testing.T) (*Graph, map[string]NodeID) {
	t.Helper()
	g := New()
	n := map[string]NodeID{}
	for _, p := range []string{"p1", "p2", "p3", "p4", "p5", "p6", "p10"} {
		n[p] = g.AddNode(Paper, p)
	}
	for _, a := range []string{"a0", "a1", "a2", "a3", "a7"} {
		n[a] = g.AddNode(Author, a)
	}
	w := func(a, p string) { g.MustAddEdge(n[a], n[p], Write) }
	w("a0", "p1")
	w("a0", "p2")
	w("a0", "p3")
	w("a0", "p4")
	w("a1", "p1")
	w("a1", "p2")
	w("a2", "p4")
	w("a2", "p5")
	w("a3", "p5")
	w("a3", "p6")
	w("a7", "p10")
	return g, n
}

func names(n map[string]NodeID, ids []NodeID) []string {
	rev := map[NodeID]string{}
	for name, id := range n {
		rev[id] = name
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = rev[id]
	}
	sort.Strings(out)
	return out
}

func TestPNeighborsExample2(t *testing.T) {
	g, n := figure2Core(t)
	// (p1, a1, p2) is a path instance of P-A-P: p2 is a P-neighbour of p1.
	got := names(n, g.PNeighbors(n["p1"], PAP))
	want := []string{"p2", "p3", "p4"}
	if len(got) != len(want) {
		t.Fatalf("PNeighbors(p1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PNeighbors(p1) = %v, want %v", got, want)
		}
	}
}

func TestPNeighborsExample4Psi(t *testing.T) {
	g, n := figure2Core(t)
	// Example 4: Ψ[p4] = {p1, p2, p3, p5}.
	got := names(n, g.PNeighbors(n["p4"], PAP))
	want := []string{"p1", "p2", "p3", "p5"}
	if len(got) != len(want) {
		t.Fatalf("PNeighbors(p4) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PNeighbors(p4) = %v, want %v", got, want)
		}
	}
	if d := g.PDegree(n["p5"], PAP); d != 2 {
		t.Errorf("deg(p5) = %d, want 2 (Example 4)", d)
	}
	if d := g.PDegree(n["p10"], PAP); d != 0 {
		t.Errorf("deg(p10) = %d, want 0 (isolated paper)", d)
	}
}

func TestPNeighborsNoDuplicatesWithMultipleSharedAuthors(t *testing.T) {
	g, n := figure2Core(t)
	// p1 and p2 share both a0 and a1 but p2 must be reported once.
	cnt := 0
	g.ForEachPNeighbor(n["p1"], PAP, func(v NodeID) bool {
		if v == n["p2"] {
			cnt++
		}
		return true
	})
	if cnt != 1 {
		t.Errorf("p2 visited %d times, want 1", cnt)
	}
}

func TestForEachPNeighborEarlyStop(t *testing.T) {
	g, n := figure2Core(t)
	visits := 0
	g.ForEachPNeighbor(n["p4"], PAP, func(NodeID) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early stop visited %d, want 1", visits)
	}
	if got := g.CountPNeighborsUpTo(n["p4"], PAP, 2); got != 2 {
		t.Errorf("CountPNeighborsUpTo = %d, want 2", got)
	}
}

func TestForEachPNeighborWrongSourceTypePanics(t *testing.T) {
	g, n := figure2Core(t)
	defer func() {
		if recover() == nil {
			t.Error("meta-path from wrong node type did not panic")
		}
	}()
	g.ForEachPNeighbor(n["a0"], PAP, func(NodeID) bool { return true })
}

func TestCitationMetaPathSymmetric(t *testing.T) {
	g := New()
	p1 := g.AddNode(Paper, "")
	p2 := g.AddNode(Paper, "")
	g.MustAddEdge(p1, p2, Cite)
	if got := g.PNeighbors(p1, PP); len(got) != 1 || got[0] != p2 {
		t.Errorf("PNeighbors(p1, PP) = %v", got)
	}
	if got := g.PNeighbors(p2, PP); len(got) != 1 || got[0] != p1 {
		t.Errorf("PNeighbors(p2, PP) = %v (cite-or-cited-by must be symmetric)", got)
	}
}

func TestIsSymmetric(t *testing.T) {
	for path, want := range map[string]bool{
		"P-A-P": true, "P-T-P": true, "P-P": true, "P-V-P": true, "P-A-P-A-P": true,
		"P-A": false, "P-A-P-T-P": false, "A-P-T": false,
	} {
		if got := MustParseMetaPath(path).IsSymmetric(); got != want {
			t.Errorf("IsSymmetric(%s) = %v, want %v", path, got, want)
		}
	}
}
