package hetgraph_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// TestProjectMatchesPNeighbors holds every paper's projected list to
// PNeighbors, order included, on the Figure 2 fixture and on generated
// graphs, along each paper-paper meta-path, on one core and on four, and
// with stamp generations that wrap within the first few papers.
func TestProjectMatchesPNeighbors(t *testing.T) {
	g, n := hetgraph.Figure2Core(t)
	h := hetgraph.Project(g, hetgraph.PAP)
	if h.NumNodes() != 7 {
		t.Fatalf("projected %d nodes, want 7", h.NumNodes())
	}
	// Undirected edge count: p1-p2, p1-p3, p1-p4, p2-p3, p2-p4, p3-p4,
	// p4-p5, p5-p6 = 8, each listed from both ends.
	entries := 0
	for _, nbrs := range h.Adj {
		entries += len(nbrs)
	}
	if entries != 2*8 {
		t.Errorf("%d adjacency entries, want 16 (8 undirected edges)", entries)
	}
	if _, ok := h.Index(n["p10"]); !ok {
		t.Error("isolated paper missing from projection")
	}
	if _, ok := h.Index(n["a1"]); ok {
		t.Error("author a1 has a position in the projection")
	}

	graphs := map[string]*hetgraph.Graph{
		"figure2": g,
		"aminer":  dataset.Generate(dataset.AminerSim(400)).Graph,
		"dblp":    dataset.Generate(dataset.DBLPSim(400)).Graph,
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for name, g := range graphs {
			for _, mp := range []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP, hetgraph.PP} {
				for _, gen0 := range []uint32{0, math.MaxUint32 - 5} {
					what := fmt.Sprintf("GOMAXPROCS %d, %s %s, first generation %d", procs, name, mp, gen0)
					h := hetgraph.ProjectFromGen(g, mp, gen0)
					if !slices.Equal(h.Nodes, g.NodesOfType(hetgraph.Paper)) {
						t.Fatalf("%s: projected nodes differ from the graph's papers", what)
					}
					for i, p := range h.Nodes {
						if want := g.PNeighbors(p, mp); !slices.Equal(h.Adj[p], want) {
							t.Fatalf("%s: paper %d projects to %v, PNeighbors gives %v", what, p, h.Adj[p], want)
						}
						if j, ok := h.Index(p); !ok || j != i {
							t.Fatalf("%s: Index(%d) = %d, %v, want %d", what, p, j, ok, i)
						}
					}
				}
			}
		}
	}
}
