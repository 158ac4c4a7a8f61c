package core

import (
	"errors"
	"strings"
	"testing"

	"expertfind/internal/hetgraph"
)

// Failure-injection tests: the engine must stay well-behaved on degenerate
// graphs a loader or generator could produce.

// degenerateGraph is six papers labelled paperLabel, all by one author,
// in one venue, on one topic.
func degenerateGraph(paperLabel string) *hetgraph.Graph {
	g := hetgraph.New()
	a := g.AddNode(hetgraph.Author, "solo author")
	tp := g.AddNode(hetgraph.Topic, "topic")
	v := g.AddNode(hetgraph.Venue, "venue")
	for i := 0; i < 6; i++ {
		p := g.AddNode(hetgraph.Paper, paperLabel)
		g.MustAddEdge(a, p, hetgraph.Write)
		g.MustAddEdge(p, tp, hetgraph.Mention)
		g.MustAddEdge(p, v, hetgraph.Publish)
	}
	return g
}

func TestBuildOnTinyGraph(t *testing.T) {
	g := degenerateGraph("some paper text about things")
	e, err := Build(g, Options{Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	experts, _, _ := e.TopExperts("some paper text", 10, 3)
	if len(experts) != 1 {
		t.Fatalf("single-author corpus returned %d experts", len(experts))
	}
}

func TestBuildWithEmptyLabels(t *testing.T) {
	g := hetgraph.New()
	a := g.AddNode(hetgraph.Author, "")
	for i := 0; i < 5; i++ {
		p := g.AddNode(hetgraph.Paper, "") // no text at all
		g.MustAddEdge(a, p, hetgraph.Write)
	}
	e, err := Build(g, Options{Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Zero-vector embeddings are degenerate but must not crash retrieval.
	experts, _, _ := e.TopExperts("anything", 5, 2)
	_ = experts
}

func TestBuildWithUnicodeLabels(t *testing.T) {
	g := degenerateGraph("研究 gráph-embédding ω≤∞ " + strings.Repeat("naïve ", 3))
	e, err := Build(g, Options{Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, st, _ := e.RetrievePapers("gráph naïve 研究", 3); st.EncodeTime < 0 {
		t.Fatal("impossible")
	}
}

func TestBuildWithIsolatedPapers(t *testing.T) {
	// Papers with no relations at all: no communities exist; training may
	// be empty, but the build and query paths must survive.
	g := hetgraph.New()
	for i := 0; i < 8; i++ {
		g.AddNode(hetgraph.Paper, "isolated paper text")
	}
	e, err := Build(g, Options{Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	papers, _, _ := e.RetrievePapers("isolated paper text", 4)
	if len(papers) != 4 {
		t.Fatalf("retrieved %d papers", len(papers))
	}
	// No authors anywhere: the expert list is empty, not a crash.
	experts, _, _ := e.TopExperts("isolated paper text", 4, 2)
	if len(experts) != 0 {
		t.Fatalf("experts from authorless corpus: %v", experts)
	}
}

func TestQueryEdgeCases(t *testing.T) {
	g := degenerateGraph("some paper text about things")
	e, err := Build(g, Options{Dim: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "    ", "@@@@!!!", strings.Repeat("word ", 5000)} {
		experts, _, _ := e.TopExperts(q, 10, 5)
		_ = experts // no panic is the contract; results may be empty
	}
	res, _, err := e.RetrievePapers("text", 0)
	var bad *BadParamError
	if !errors.As(err, &bad) || bad.Param != "m" {
		t.Errorf("m=0 should return *BadParamError for m, got %v", err)
	}
	if len(res) != 0 {
		t.Error("m=0 returned papers")
	}
}
