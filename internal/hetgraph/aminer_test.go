package hetgraph

import (
	"strings"
	"testing"
)

const aminerSample = `#*Community Search Over Big Graphs
#@Alice Smith, Bob Jones
#t2019
#cICDE
#index1
#%2
#%404
#!We study community search at scale.

#*Graph Embedding Methods
#@Bob Jones, Carol White
#t2020
#cKDD
#index2
#%1

#*An Isolated Survey
#@Dan Green
#index3
`

func TestReadAminerBasic(t *testing.T) {
	g, byIndex, err := ReadAminer(strings.NewReader(aminerSample))
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumNodesOfType(Paper); got != 3 {
		t.Fatalf("papers = %d, want 3", got)
	}
	if got := g.NumNodesOfType(Author); got != 4 {
		t.Fatalf("authors = %d, want 4", got)
	}
	if got := g.NumNodesOfType(Venue); got != 2 {
		t.Fatalf("venues = %d, want 2", got)
	}

	p1 := byIndex["1"]
	if !strings.Contains(g.Label(p1), "Community Search") ||
		!strings.Contains(g.Label(p1), "community search at scale") {
		t.Errorf("label lost title or abstract: %q", g.Label(p1))
	}
	// Author order = Zipf ranks.
	authors := g.AuthorsOf(p1)
	if len(authors) != 2 || g.Label(authors[0]) != "Alice Smith" || g.Label(authors[1]) != "Bob Jones" {
		t.Errorf("author order wrong: %v", authors)
	}
	// Bob Jones is shared between papers 1 and 2: P-A-P neighbourhood.
	p2 := byIndex["2"]
	if ns := g.PNeighbors(p1, PAP); len(ns) != 1 || ns[0] != p2 {
		t.Errorf("PAP neighbours of p1 = %v, want [p2]", ns)
	}
	// Citation 1->2 resolved (despite 2 appearing later); 404 dropped;
	// the mutual cite 2->1 deduplicated into one undirected edge.
	if g.NumEdgesOfType(Cite) != 1 {
		t.Errorf("cite edges = %d, want 1", g.NumEdgesOfType(Cite))
	}
	// Paper 3 has no venue: allowed.
	if g.Degree(byIndex["3"], Venue) != 0 {
		t.Error("venue invented for paper 3")
	}
}

func TestReadAminerWithoutBlankSeparators(t *testing.T) {
	in := "#*First\n#@A One\n#index10\n#*Second\n#@B Two\n#index11\n"
	g, byIndex, err := ReadAminer(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodesOfType(Paper) != 2 {
		t.Fatalf("papers = %d, want 2", g.NumNodesOfType(Paper))
	}
	if _, ok := byIndex["11"]; !ok {
		t.Error("second record lost")
	}
}

func TestReadAminerErrors(t *testing.T) {
	if _, _, err := ReadAminer(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := ReadAminer(strings.NewReader("#*T\n#@A\n")); err == nil {
		t.Error("block without #index accepted")
	}
	dup := "#*X\n#index5\n\n#*Y\n#index5\n"
	if _, _, err := ReadAminer(strings.NewReader(dup)); err == nil {
		t.Error("duplicate index accepted")
	}
}

func TestReadAminerRoundTripThroughJSON(t *testing.T) {
	g, _, err := ReadAminer(strings.NewReader(aminerSample))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Error("aminer graph does not survive the JSON round trip")
	}
}
