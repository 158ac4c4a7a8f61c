package baselines

import (
	"math/rand"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.Generate(dataset.AminerSim(200))
}

func TestAllBaselinesBuildAndRetrieve(t *testing.T) {
	ds := testDataset(t)
	g := ds.Graph
	rng := rand.New(rand.NewSource(1))
	queries := ds.Queries(3, rng)
	names := map[string]bool{}
	for _, m := range All(24, 7) {
		if names[m.Name()] {
			t.Fatalf("duplicate baseline name %q", m.Name())
		}
		names[m.Name()] = true
		if err := m.Build(g); err != nil {
			t.Fatalf("%s: build: %v", m.Name(), err)
		}
		for _, q := range queries {
			papers := m.QueryPapers(q.Text, 15)
			if len(papers) != 15 {
				t.Fatalf("%s: retrieved %d papers, want 15", m.Name(), len(papers))
			}
			seen := map[hetgraph.NodeID]bool{}
			for _, p := range papers {
				if g.Type(p) != hetgraph.Paper {
					t.Fatalf("%s returned a non-paper node", m.Name())
				}
				if seen[p] {
					t.Fatalf("%s returned duplicate paper %d", m.Name(), p)
				}
				seen[p] = true
			}
		}
	}
	want := []string{"TADW", "GVNR-t", "G2G", "IDNE", "TFIDF", "AvgGloVe", "SBERT"}
	for _, n := range want {
		if !names[n] {
			t.Errorf("baseline %q missing from All()", n)
		}
	}
}

func TestRankByDistanceExact(t *testing.T) {
	embs := map[hetgraph.NodeID]vec.Vector{
		1: {0, 0}, 2: {1, 0}, 3: {5, 5},
	}
	got := rankByDistance(embs, vec.Vector{0.1, 0}, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("rankByDistance = %v, want [1 2]", got)
	}
}

func TestTFIDFExactMatchFirst(t *testing.T) {
	g := hetgraph.New()
	p1 := g.AddNode(hetgraph.Paper, "community search over big graphs")
	p2 := g.AddNode(hetgraph.Paper, "neural machine translation systems")
	p3 := g.AddNode(hetgraph.Paper, "community detection algorithms")
	tf := NewTFIDF()
	if err := tf.Build(g); err != nil {
		t.Fatal(err)
	}
	got := tf.QueryPapers("community search over big graphs", 3)
	if len(got) == 0 || got[0] != p1 {
		t.Errorf("exact duplicate not first: %v", got)
	}
	// A query with no overlapping terms returns nothing.
	if got := tf.QueryPapers("zzz qqq", 3); len(got) != 0 {
		t.Errorf("no-overlap query returned %v", got)
	}
	_ = p2
	_ = p3
}

func TestTFIDFPrefersRareTerms(t *testing.T) {
	g := hetgraph.New()
	// "shared" appears everywhere; "unique" only in p1.
	p1 := g.AddNode(hetgraph.Paper, "shared unique")
	g.AddNode(hetgraph.Paper, "shared alpha")
	g.AddNode(hetgraph.Paper, "shared beta")
	tf := NewTFIDF()
	if err := tf.Build(g); err != nil {
		t.Fatal(err)
	}
	got := tf.QueryPapers("unique", 1)
	if len(got) != 1 || got[0] != p1 {
		t.Errorf("rare-term query = %v, want [p1]", got)
	}
}

func TestSBERTFrozenEncoderShared(t *testing.T) {
	ds := testDataset(t)
	g := ds.Graph
	s1 := NewSBERT(24, 7)
	s2 := NewSBERT(24, 7)
	if err := s1.Build(g); err != nil {
		t.Fatal(err)
	}
	if err := s2.Build(g); err != nil {
		t.Fatal(err)
	}
	if s1.Encoder() != s2.Encoder() {
		t.Error("frozen encoder not memoised per (graph, dim, seed)")
	}
	if len(s1.Embeddings()) != g.NumNodesOfType(hetgraph.Paper) {
		t.Error("SBERT did not embed all papers")
	}
}

func TestBaselinesDeterministic(t *testing.T) {
	ds := testDataset(t)
	g := ds.Graph
	q := ds.Queries(1, rand.New(rand.NewSource(2)))[0]
	for _, build := range []func() Method{
		func() Method { return NewTADW(24, 7) },
		func() Method { return NewGVNRT(24, 7) },
		func() Method { return NewG2G(24, 7) },
		func() Method { return NewIDNE(24, 7) },
		func() Method { return NewTFIDF() },
		func() Method { return NewAvgGloVe(24, 7) },
	} {
		m1 := build()
		m2 := build()
		if err := m1.Build(g); err != nil {
			t.Fatal(err)
		}
		if err := m2.Build(g); err != nil {
			t.Fatal(err)
		}
		a := m1.QueryPapers(q.Text, 10)
		b := m2.QueryPapers(q.Text, 10)
		if len(a) != len(b) {
			t.Fatalf("%s nondeterministic lengths", m1.Name())
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s nondeterministic at rank %d", m1.Name(), i)
			}
		}
	}
}

func TestGraphBaselinesUseStructure(t *testing.T) {
	// TADW's paper embeddings must differ from the frozen text encoding
	// (graph smoothing must actually do something).
	ds := testDataset(t)
	g := ds.Graph
	tadw := NewTADW(24, 7)
	if err := tadw.Build(g); err != nil {
		t.Fatal(err)
	}
	sb := NewSBERT(24, 7)
	if err := sb.Build(g); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		a, b := tadw.embs[p], sb.Embeddings()[p]
		if a.L2Sq(b) > 1e-18 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("TADW embeddings identical to text-only embeddings")
	}
}

func TestHomoNeighborsCapAndDedup(t *testing.T) {
	ds := testDataset(t)
	g := ds.Graph
	for _, p := range g.NodesOfType(hetgraph.Paper)[:20] {
		ns := homoNeighbors(g, p, allMetaPaths)
		if len(ns) > maxHomoNeighbors {
			t.Fatalf("paper %d has %d homo neighbours, cap %d", p, len(ns), maxHomoNeighbors)
		}
		seen := map[hetgraph.NodeID]bool{}
		for _, q := range ns {
			if seen[q] {
				t.Fatalf("duplicate neighbour %d", q)
			}
			seen[q] = true
			if q == p {
				t.Fatal("self in neighbours")
			}
		}
	}
}

func TestIDNEAttentionFavoursTopicalWords(t *testing.T) {
	ds := testDataset(t)
	g := ds.Graph
	idne := NewIDNE(24, 7)
	if err := idne.Build(g); err != nil {
		t.Fatal(err)
	}
	if len(idne.att) == 0 {
		t.Fatal("no attention weights learned")
	}
	for w, a := range idne.att {
		if a < 0 || a > 1.0000001 {
			t.Fatalf("attention of %q = %v outside [0,1]", w, a)
		}
	}
}
