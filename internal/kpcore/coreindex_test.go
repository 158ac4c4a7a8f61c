package kpcore

import (
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

// FuzzCoreIndexMatchesSearch is the equivalence the sampling stage rests
// on: on a random graph whose shape and k the fuzzer draws, the index
// answers every seed exactly as Algorithm 1 does — sub-k seeds, isolated
// papers and papers bridging two dense regions included. Its seeds catch
// every fault of CoreIndex the hand-built graphs were checked against. A
// generated dataset graph is TestCoreIndexMatchesSearchOnDatasets' and the
// counts ledger's.
func FuzzCoreIndexMatchesSearch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(3), uint8(2), uint8(3))
	f.Add(int64(2), uint8(60), uint8(90), uint8(1), uint8(1), uint8(2))
	f.Add(int64(3), uint8(25), uint8(4), uint8(0), uint8(3), uint8(7))
	f.Add(int64(4), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	// Ten papers, k = 3: a seed touches two core components whose papers
	// interleave, so a union of two lists must be sorted.
	f.Add(int64(2), uint8(9), uint8(13), uint8(7), uint8(2), uint8(3))
	// Three shapes at every k from 0 (everything is core) to 7 (nearly
	// nothing is): few authors make one dense co-author blob, many leave
	// mostly sub-k papers.
	for _, g := range []struct {
		seed                                int64
		papers, authors, topics, edgeFactor uint8
	}{{1, 69, 11, 3, 2}, {2, 89, 39, 5, 2}, {3, 89, 159, 12, 1}} {
		for k := range uint8(8) {
			f.Add(g.seed, g.papers, g.authors, g.topics, g.edgeFactor, k)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, papers, authors, topics, edgeFactor, k uint8) {
		g := testgraph.Random(rand.New(rand.NewSource(seed)),
			1+int(papers%96), 1+int(authors), int(topics%16), int(edgeFactor%5))
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
					if !inCore(want, u) && !want.Contains(u) {
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
