package hetgraph

import (
	"testing"
)

func TestNodeTypeStringRoundTrip(t *testing.T) {
	for _, nt := range []NodeType{Author, Paper, Venue, Topic} {
		got, err := ParseNodeType(nt.String())
		if err != nil {
			t.Fatalf("ParseNodeType(%q): %v", nt.String(), err)
		}
		if got != nt {
			t.Errorf("round trip %v -> %v", nt, got)
		}
	}
	if _, err := ParseNodeType("X"); err == nil {
		t.Error("ParseNodeType accepted unknown type")
	}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	a := g.AddNode(Author, "alice")
	p := g.AddNode(Paper, "a paper")
	if a != 0 || p != 1 {
		t.Errorf("ids = %d, %d; want 0, 1", a, p)
	}
	if g.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.Type(a) != Author || g.Label(p) != "a paper" {
		t.Error("type or label not recorded")
	}
}

func TestAddEdgeSchemaValidation(t *testing.T) {
	g := New()
	a := g.AddNode(Author, "")
	p := g.AddNode(Paper, "")
	v := g.AddNode(Venue, "")
	tp := g.AddNode(Topic, "")

	cases := []struct {
		u, v NodeID
		et   EdgeType
		ok   bool
	}{
		{a, p, Write, true},
		{p, a, Write, true}, // direction-agnostic
		{p, v, Publish, true},
		{p, tp, Mention, true},
		{a, v, Write, false},
		{a, p, Publish, false},
		{a, a, Write, false},
		{p, p, Cite, false}, // self edge
	}
	for _, c := range cases {
		err := g.AddEdge(c.u, c.v, c.et)
		if (err == nil) != c.ok {
			t.Errorf("AddEdge(%d,%d,%s): err=%v, want ok=%v", c.u, c.v, c.et, err, c.ok)
		}
	}
	if err := g.AddEdge(99, p, Write); err == nil {
		t.Error("AddEdge accepted out-of-range node")
	}
}

func TestAuthorOrderPreserved(t *testing.T) {
	g := New()
	p := g.AddNode(Paper, "")
	var want []NodeID
	for i := 0; i < 5; i++ {
		a := g.AddNode(Author, "")
		g.MustAddEdge(a, p, Write)
		want = append(want, a)
	}
	got := g.AuthorsOf(p)
	if len(got) != len(want) {
		t.Fatalf("got %d authors, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("author rank %d = %d, want %d (Zipf weights depend on this order)", i+1, got[i], want[i])
		}
	}
}

func TestAuthorsOfPanicsOnNonPaper(t *testing.T) {
	g := New()
	a := g.AddNode(Author, "")
	defer func() {
		if recover() == nil {
			t.Error("AuthorsOf on author did not panic")
		}
	}()
	g.AuthorsOf(a)
}

func TestStatsAndCounts(t *testing.T) {
	g := New()
	a := g.AddNode(Author, "")
	p1 := g.AddNode(Paper, "")
	p2 := g.AddNode(Paper, "")
	v := g.AddNode(Venue, "")
	tp := g.AddNode(Topic, "")
	g.MustAddEdge(a, p1, Write)
	g.MustAddEdge(a, p2, Write)
	g.MustAddEdge(p1, v, Publish)
	g.MustAddEdge(p1, tp, Mention)
	g.MustAddEdge(p1, p2, Cite)

	st := g.Stats()
	if st.Papers != 2 || st.Experts != 1 || st.Venues != 1 || st.Topics != 1 || st.Relations != 5 {
		t.Errorf("Stats = %+v", st)
	}
	if g.edgeCount[Write] != 2 || g.edgeCount[Cite] != 1 {
		t.Error("per-type edge counts wrong")
	}
	if len(g.Neighbors(p1, Author)) != 1 || len(g.Neighbors(a, Paper)) != 2 {
		t.Error("typed degrees wrong")
	}
	if len(g.NodesOfType(Paper)) != 2 {
		t.Error("NodesOfType(Paper) wrong")
	}
}

func TestMetaPathParse(t *testing.T) {
	mp, err := ParseMetaPath("P-A-P")
	if err != nil {
		t.Fatal(err)
	}
	if mp.Len() != 2 || mp.Source() != Paper || mp.Target() != Paper || !mp.IsPaperPaper() {
		t.Errorf("P-A-P parsed wrong: %+v", mp)
	}
	if mp.String() != "P-A-P" {
		t.Errorf("String = %q", mp.String())
	}
	if _, err := ParseMetaPath("P"); err == nil {
		t.Error("single-type meta-path accepted")
	}
	if _, err := ParseMetaPath("P-Q-P"); err == nil {
		t.Error("unknown node type accepted")
	}
	if _, err := ParseMetaPath("A-V"); err == nil {
		t.Error("schema-invalid hop accepted (no Author-Venue edge)")
	}
	if _, err := ParseMetaPath("A-P-A"); err != nil {
		t.Errorf("A-P-A should be valid on the schema: %v", err)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, n := figure2Core(t)
	// Keep p1..p4: their authors a0, a1, a2 come along (a2 via p4).
	keep := []NodeID{n["p1"], n["p2"], n["p3"], n["p4"]}
	sub, mapping, err := InducedSubgraph(g, keep)
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.NumNodesOfType(Paper); got != 4 {
		t.Fatalf("papers = %d, want 4", got)
	}
	if got := sub.NumNodesOfType(Author); got != 3 {
		t.Fatalf("authors = %d, want 3 (a0, a1, a2)", got)
	}
	// p5 and its exclusive author a3 are gone.
	if _, ok := mapping[n["p5"]]; ok {
		t.Error("p5 leaked into the subgraph")
	}
	// Edges among kept nodes survive: p4 keeps authors a0 and a2, in the
	// original rank order.
	p4 := mapping[n["p4"]]
	authors := sub.AuthorsOf(p4)
	if len(authors) != 2 {
		t.Fatalf("p4 has %d authors in subgraph, want 2", len(authors))
	}
	if sub.Label(authors[0]) != "a0" || sub.Label(authors[1]) != "a2" {
		t.Errorf("author order broken: %s, %s", sub.Label(authors[0]), sub.Label(authors[1]))
	}
	// P-neighbour structure restricted to kept papers is intact.
	if d := len(sub.PNeighbors(p4, PAP)); d != 3 {
		t.Errorf("deg(p4) in subgraph = %d, want 3", d)
	}
}

func TestInducedSubgraphRejectsNonPaper(t *testing.T) {
	g, n := figure2Core(t)
	if _, _, err := InducedSubgraph(g, []NodeID{n["a0"]}); err == nil {
		t.Error("author accepted as subgraph seed")
	}
	if _, _, err := InducedSubgraph(g, []NodeID{9999}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestPVPMetaPath(t *testing.T) {
	// The venue meta-path P-V-P parses and traverses — it is the noisy
	// relationship Figure 1(a) warns about, supported but not a default.
	pvp := MustParseMetaPath("P-V-P")
	g := New()
	p1 := g.AddNode(Paper, "")
	p2 := g.AddNode(Paper, "")
	p3 := g.AddNode(Paper, "")
	v1 := g.AddNode(Venue, "")
	v2 := g.AddNode(Venue, "")
	g.MustAddEdge(p1, v1, Publish)
	g.MustAddEdge(p2, v1, Publish)
	g.MustAddEdge(p3, v2, Publish)
	got := g.PNeighbors(p1, pvp)
	if len(got) != 1 || got[0] != p2 {
		t.Errorf("P-V-P neighbours of p1 = %v, want [p2]", got)
	}
}
