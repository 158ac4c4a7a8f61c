package baselines

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/textenc"
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

func TestPaperRowsQueryExact(t *testing.T) {
	rows, err := vec.Matrix32Of(4, 2, []float32{0, 0, 1, 0, 5, 5, 0.2, 0})
	if err != nil {
		t.Fatal(err)
	}
	r := paperRows{ids: []hetgraph.NodeID{1, 2, 3, 4}, rows: rows}
	// Papers 1 and 4 are both 0.1 from the query: the smaller id ranks first.
	got := r.query(vec.Vec32{0.1, 0}, 3)
	if want := []hetgraph.NodeID{1, 4, 2}; !slices.Equal(got, want) {
		t.Errorf("query = %v, want %v", got, want)
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
	if ids, rows := s1.Rows(); len(ids) != g.NumNodesOfType(hetgraph.Paper) || rows.Rows != len(ids) {
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
	// (graph smoothing must actually do something). Float32 rounding of
	// the 0.5/0.35/0.15 blend alone moves a row by far less than 1e-6.
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
	for i := range tadw.ids {
		if vec.L2Sq32(tadw.rows.Row(i), sb.rows.Row(i)) > 1e-6 {
			diff++
		}
	}
	if diff == 0 {
		t.Error("TADW embeddings equal the text-only embeddings up to rounding")
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
	if len(idne.words) == 0 {
		t.Fatal("no attention weights learned")
	}
	for w, iw := range idne.words {
		if a := iw.att; a < 0 || a > 1.0000001 {
			t.Fatalf("attention of %q = %v outside [0,1]", w, a)
		}
	}
}

// TestIDNEEncodeMatchesPerOccurrenceSum holds encode, which reads each
// corpus word's vector from Build's memo, to the weighted sum it replaced:
// SurfaceVector drawn afresh at every occurrence and the idf counted from
// the corpus, for a text with a repeated corpus word and an unseen word.
func TestIDNEEncodeMatchesPerOccurrenceSum(t *testing.T) {
	g := testDataset(t).Graph
	idne := NewIDNE(24, 7)
	if err := idne.Build(g); err != nil {
		t.Fatal(err)
	}
	papers := g.NodesOfType(hetgraph.Paper)
	word := textenc.SplitWords(g.Label(papers[0]))[0]
	const unseen = "qqzzunseen"
	if _, ok := idne.words[unseen]; ok {
		t.Fatalf("%q is a corpus word", unseen)
	}
	text := word + " " + unseen + " " + word
	want := vec.New32(24)
	var total float64
	for _, w := range textenc.SplitWords(text) {
		att, df := 0.5, 0
		if iw, ok := idne.words[w]; ok {
			att = iw.att
		}
		for _, p := range papers {
			if slices.Contains(textenc.SplitWords(g.Label(p)), w) {
				df++
			}
		}
		wt := att * math.Log(1+float64(len(papers))/float64(1+df))
		vec.Axpy32(want, float32(wt), textenc.SurfaceVector(24, w, 7))
		total += wt
	}
	vec.Scale32(want, float32(1/total))
	got := vec.New32(24)
	idne.encode(got, text)
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("encode(%q)[%d] = %v, per-occurrence sum %v", text, j, got[j], want[j])
		}
	}
	if _, ok := idne.words[unseen]; ok {
		t.Errorf("encode inserted %q into the memo", unseen)
	}
}
