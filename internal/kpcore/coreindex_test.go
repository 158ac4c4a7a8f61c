package kpcore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
)

var threePaths = []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP, hetgraph.PP}

// requireIndexMatchesSearch fails unless, for every paper of g as the
// seed, the indexed community equals Algorithm 1's in Core, Members and
// Near under each meta-path, and the indexed multi-path community equals
// SearchMulti's over all of them.
func requireIndexMatchesSearch(t *testing.T, g *hetgraph.Graph, k int, mps []hetgraph.MetaPath) {
	t.Helper()
	same := func(what string, seed hetgraph.NodeID, got, want *Community) {
		t.Helper()
		if !slices.Equal(got.Core, want.Core) {
			t.Fatalf("k=%d %s seed %d: core %v, Search has %v", k, what, seed, got.Core, want.Core)
		}
		if !slices.Equal(got.Members, want.Members) {
			t.Fatalf("k=%d %s seed %d: members %v, Search has %v", k, what, seed, got.Members, want.Members)
		}
		if !slices.Equal(got.Near, want.Near) {
			t.Fatalf("k=%d %s seed %d: near %v, Search has %v", k, what, seed, got.Near, want.Near)
		}
	}
	idxs := make([]*CoreIndex, len(mps))
	for i, mp := range mps {
		idxs[i] = NewCoreIndex(g, k, mp)
	}
	for _, seed := range g.NodesOfType(hetgraph.Paper) {
		for i, mp := range mps {
			same(mp.String(), seed, idxs[i].CommunityAround(seed, false), Search(g, seed, k, mp))
		}
		same("multi-path", seed, SearchMultiIndexed(idxs, seed, false), SearchMulti(g, seed, k, mps))
	}
}

// blobs builds two co-author cliques of six papers joined three ways — by
// a paper below any k ≥ 3 (one co-author in each clique), by a paper with
// four P-neighbours spread over both, and by a chain hanging off the first
// clique whose head meets k = 3 but peels — plus a paper with no co-author
// at all. Every paper mentions one of two topics and a few cite each
// other, so P-T-P and P-P have structure too.
func blobs() *hetgraph.Graph {
	g := hetgraph.New()
	paper := func(name string) hetgraph.NodeID { return g.AddNode(hetgraph.Paper, name) }
	nAuthors := 0
	coauthor := func(ps ...hetgraph.NodeID) {
		a := g.AddNode(hetgraph.Author, fmt.Sprintf("a%d", nAuthors))
		nAuthors++
		for _, p := range ps {
			g.MustAddEdge(a, p, hetgraph.Write)
		}
	}
	var left, right []hetgraph.NodeID
	for i := 0; i < 6; i++ {
		left = append(left, paper(fmt.Sprintf("left %d", i)))
		right = append(right, paper(fmt.Sprintf("right %d", i)))
	}
	coauthor(left...)
	coauthor(right...)
	thin, wide, lone := paper("thin bridge"), paper("wide bridge"), paper("lone")
	coauthor(thin, left[0])
	coauthor(thin, right[0])
	for _, p := range []hetgraph.NodeID{left[1], left[2], right[1], right[2]} {
		coauthor(wide, p)
	}
	head, mid, tail := paper("chain head"), paper("chain mid"), paper("chain tail")
	coauthor(head, left[3])
	coauthor(head, left[4])
	coauthor(head, mid)
	coauthor(mid, tail)
	coauthor(lone)

	topics := []hetgraph.NodeID{g.AddNode(hetgraph.Topic, "t0"), g.AddNode(hetgraph.Topic, "t1")}
	for i, p := range g.NodesOfType(hetgraph.Paper) {
		if p != lone {
			g.MustAddEdge(p, topics[i%2], hetgraph.Mention)
		}
	}
	g.MustAddEdge(left[0], left[1], hetgraph.Cite)
	g.MustAddEdge(left[1], right[1], hetgraph.Cite)
	g.MustAddEdge(thin, head, hetgraph.Cite)
	g.MustAddEdge(mid, wide, hetgraph.Cite)
	return g
}

// TestCoreIndexMatchesSearchEverySeed is the equivalence the sampling
// stage rests on: on hand-built, random and dataset graphs, for k from 0
// (everything is core) to 7 (nearly nothing is), the index answers every
// seed exactly as Algorithm 1 does — sub-k seeds, isolated papers and
// papers bridging two dense regions included.
func TestCoreIndexMatchesSearchEverySeed(t *testing.T) {
	fig2, _ := testgraph.Figure2()
	graphs := map[string]*hetgraph.Graph{
		"figure2": fig2,
		"blobs":   blobs(),
		// Few authors: one dense co-author blob. Many: mostly sub-k papers.
		"random-dense":  testgraph.Random(rand.New(rand.NewSource(1)), 70, 12, 3, 2),
		"random-mixed":  testgraph.Random(rand.New(rand.NewSource(2)), 90, 40, 5, 2),
		"random-sparse": testgraph.Random(rand.New(rand.NewSource(3)), 90, 160, 12, 1),
		"aminer-400":    dataset.Generate(dataset.AminerSim(400)).Graph,
	}
	for name, g := range graphs {
		for k := 0; k <= 7; k++ {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				requireIndexMatchesSearch(t, g, k, threePaths)
			})
		}
	}
}

// FuzzCoreIndexMatchesSearch draws the graph's shape and k from the
// fuzzer and requires the same equivalence for every seed.
func FuzzCoreIndexMatchesSearch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(3), uint8(2), uint8(3))
	f.Add(int64(2), uint8(60), uint8(90), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(25), uint8(4), uint8(0), uint8(3), uint8(7))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, papers, authors, topics, edgeFactor, k uint8) {
		g := testgraph.Random(rand.New(rand.NewSource(seed)),
			1+int(papers%80), 1+int(authors), int(topics%8), int(edgeFactor%5))
		requireIndexMatchesSearch(t, g, int(k%9), threePaths)
	})
}

func TestCoreIndexMatchesSearchOnFigure2(t *testing.T) {
	g, n := testgraph.Figure2()
	idx := NewCoreIndex(g, 3, hetgraph.PAP)
	for _, seed := range []string{"p4", "p1", "p5", "p10"} {
		want := Search(g, n[seed], 3, hetgraph.PAP)
		got := idx.CommunityAround(n[seed], false)
		if !equalIDs(got.Core, want.Core) {
			t.Errorf("seed %s: core %v != %v", seed, asNames(n, got.Core), asNames(n, want.Core))
		}
		if !equalIDs(got.Members, want.Members) {
			t.Errorf("seed %s: members %v != %v", seed, asNames(n, got.Members), asNames(n, want.Members))
		}
		if !equalIDs(got.Near, want.Near) {
			t.Errorf("seed %s: near %v != %v", seed, asNames(n, got.Near), asNames(n, want.Near))
		}
	}
}

// TestCoreIndexMatchesSearchOnDatasets: on a realistic network the
// delete-queue pool equals Algorithm 1's for sampled seeds, and the
// boundary pool is what its name says — the non-core P-neighbours of the
// community's core, less the members — hence a subset of the former.
func TestCoreIndexMatchesSearchOnDatasets(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(400))
	g := ds.Graph
	rng := rand.New(rand.NewSource(6))
	papers := g.NodesOfType(hetgraph.Paper)
	for _, mp := range []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PP} {
		idx := NewCoreIndex(g, 4, mp)
		for i := 0; i < 15; i++ {
			seed := papers[rng.Intn(len(papers))]
			want := Search(g, seed, 4, mp)
			got := idx.CommunityAround(seed, false)
			if !equalIDs(got.Core, want.Core) {
				t.Fatalf("%s seed %d: cores differ (%d vs %d members)",
					mp, seed, len(got.Core), len(want.Core))
			}
			if !equalIDs(got.Members, want.Members) {
				t.Fatalf("%s seed %d: members differ", mp, seed)
			}
			if !equalIDs(got.Near, want.Near) {
				t.Fatalf("%s seed %d: near pools differ (%d vs %d papers)",
					mp, seed, len(got.Near), len(want.Near))
			}

			var boundary []hetgraph.NodeID
			for _, c := range want.Core {
				for _, u := range g.PNeighbors(c, mp) {
					if !want.InCore(u) && !want.Contains(u) {
						boundary = append(boundary, u)
					}
				}
			}
			slices.Sort(boundary)
			boundary = slices.Compact(boundary)
			edge := idx.CommunityAround(seed, true)
			if !equalIDs(edge.Core, want.Core) || !equalIDs(edge.Members, want.Members) {
				t.Fatalf("%s seed %d: the pool flavour changed the community", mp, seed)
			}
			if !equalIDs(edge.Near, boundary) {
				t.Fatalf("%s seed %d: boundary pool %v, want %v", mp, seed, edge.Near, boundary)
			}
			if !subsetIDs(edge.Near, want.Near) {
				t.Fatalf("%s seed %d: boundary pool leaves the delete queue", mp, seed)
			}
		}
	}
}

func TestCoreIndexComponents(t *testing.T) {
	g, n := testgraph.Figure2()
	idx := NewCoreIndex(g, 3, hetgraph.PAP)
	// Figure 2 has exactly one 3-core component: {p1..p4}.
	if len(idx.members) != 1 {
		t.Fatalf("components = %d, want 1", len(idx.members))
	}
	if idx.coreOf[n["p1"]] < 0 || idx.coreOf[n["p5"]] >= 0 {
		t.Error("core membership wrong")
	}
	// p1..p4 have degree 3; p5 (degree 2) is adjacent to the component
	// and everything else is below k: one candidate component, whose
	// delete queue is {p5}.
	if len(idx.pruned) != 1 || !equalIDs(idx.pruned[0], []hetgraph.NodeID{n["p5"]}) {
		t.Errorf("delete queues = %v, want [[p5]]", idx.pruned)
	}
}

func TestCoreIndexAmortizesManySeeds(t *testing.T) {
	// The index must answer every paper as a seed without error and with
	// valid communities (seed always a member).
	ds := dataset.Generate(dataset.AminerSim(300))
	g := ds.Graph
	idx := NewCoreIndex(g, 4, hetgraph.PAP)
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		com := idx.CommunityAround(p, false)
		if !com.Contains(p) {
			t.Fatalf("seed %d missing from its own community", p)
		}
	}
}

func TestCoreIndexValidatesInput(t *testing.T) {
	g, n := testgraph.Figure2()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("asymmetric meta-path", func() {
		NewCoreIndex(g, 3, hetgraph.MustParseMetaPath("P-A-P-T-P"))
	})
	mustPanic("negative k", func() { NewCoreIndex(g, -1, hetgraph.PAP) })
	mustPanic("author seed", func() { NewCoreIndex(g, 3, hetgraph.PAP).CommunityAround(n["a0"], false) })
}
