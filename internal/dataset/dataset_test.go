package dataset

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/hetgraph"
)

func small() Config {
	c := AminerSim(300)
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small())
	b := Generate(small())
	if a.Graph.NumNodes() != b.Graph.NumNodes() || a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatal("same config produced different graphs")
	}
	for id := hetgraph.NodeID(0); int(id) < a.Graph.NumNodes(); id++ {
		if a.Graph.Label(id) != b.Graph.Label(id) {
			t.Fatalf("label of node %d differs", id)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	ds := Generate(small())
	g := ds.Graph
	st := g.Stats()
	if st.Papers != 300 {
		t.Errorf("papers = %d, want 300", st.Papers)
	}
	if st.Topics != 7 {
		t.Errorf("topics = %d, want 7 (Aminer preset)", st.Topics)
	}
	if st.Experts == 0 || st.Venues == 0 || st.Relations == 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	// Every paper has authors, a venue and at least one topic.
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		if len(g.AuthorsOf(p)) == 0 {
			t.Fatalf("paper %d has no authors", p)
		}
		if nv := len(g.Neighbors(p, hetgraph.Venue)); nv != 1 {
			t.Fatalf("paper %d has %d venues", p, nv)
		}
		nt := len(g.Neighbors(p, hetgraph.Topic))
		if nt < 1 || nt > 2 {
			t.Fatalf("paper %d mentions %d topics", p, nt)
		}
		if g.Label(p) == "" {
			t.Fatalf("paper %d has no text", p)
		}
	}
}

func TestPrimaryTopicConsistency(t *testing.T) {
	ds := Generate(small())
	g := ds.Graph
	papers := g.NodesOfType(hetgraph.Paper)
	labelled := 0
	for _, p := range papers {
		topic, ok := ds.PrimaryTopic[p]
		if !ok {
			t.Fatalf("paper %d missing a primary topic", p)
		}
		for _, tn := range g.Neighbors(p, hetgraph.Topic) {
			if tn == ds.Topics[topic] {
				labelled++
			}
		}
	}
	// Topic labels carry TopicLabelNoise (default 8%): most papers — but
	// deliberately not all — mention their true primary topic.
	frac := float64(labelled) / float64(len(papers))
	if frac < 0.85 {
		t.Errorf("only %.2f of papers mention their primary topic; label noise too high", frac)
	}
	if frac == 1 {
		t.Error("every label is clean; TopicLabelNoise had no effect")
	}
}

func TestAuthorTopicsMatchGroundTruth(t *testing.T) {
	ds := Generate(small())
	for a, topics := range ds.AuthorTopics {
		for tp := range topics {
			if !ds.expertsByTopic[tp][a] {
				t.Fatalf("author %d missing from topic %d ground truth", a, tp)
			}
		}
	}
	// Every author in a ground-truth set authored a paper of that topic.
	g := ds.Graph
	for tp := 0; tp < 7; tp++ {
		for a := range ds.expertsByTopic[tp] {
			ok := false
			for _, p := range g.PapersOf(a) {
				if ds.PrimaryTopic[p] == tp {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("author %d in truth of topic %d without a paper there", a, tp)
			}
		}
	}
}

func TestCoAuthorshipCohesion(t *testing.T) {
	// Research groups must generate real (k,P)-core material: a healthy
	// fraction of papers should have >= 4 P-A-P neighbours.
	ds := Generate(small())
	g := ds.Graph
	dense := 0
	papers := g.NodesOfType(hetgraph.Paper)
	for _, p := range papers {
		if len(g.PNeighbors(p, hetgraph.PAP)) >= 4 {
			dense++
		}
	}
	if frac := float64(dense) / float64(len(papers)); frac < 0.5 {
		t.Errorf("only %.2f of papers have PAP degree >= 4; groups too weak", frac)
	}
}

func TestCitationTopicBias(t *testing.T) {
	ds := Generate(AminerSim(600))
	g := ds.Graph
	same, total := 0, 0
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		for _, q := range g.Neighbors(p, hetgraph.Paper) {
			total++
			if ds.PrimaryTopic[p] == ds.PrimaryTopic[q] {
				same++
			}
		}
	}
	if total == 0 {
		t.Fatal("no citations generated")
	}
	if frac := float64(same) / float64(total); frac < 0.7 {
		t.Errorf("same-topic citation fraction %.2f, want >= 0.7", frac)
	}
}

func TestQueries(t *testing.T) {
	ds := Generate(small())
	rng := rand.New(rand.NewSource(1))
	qs := ds.Queries(20, rng)
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	seen := map[hetgraph.NodeID]bool{}
	for _, q := range qs {
		if seen[q.Source] {
			t.Error("duplicate source paper across queries")
		}
		seen[q.Source] = true
		if q.Text == "" {
			t.Error("empty query text")
		}
		if len(q.Truth) == 0 {
			t.Error("empty ground truth")
		}
		if q.Topic != ds.PrimaryTopic[q.Source] {
			t.Error("query topic mismatch")
		}
		// Paraphrase, not verbatim.
		if q.Text == ds.Graph.Label(q.Source) {
			t.Error("query text is the verbatim paper text")
		}
	}
	// Overshoot returns everything once.
	if got := ds.Queries(10_000, rng); len(got) != 300 {
		t.Errorf("overshoot queries = %d, want 300", len(got))
	}
}

func TestQueryParaphraseStaysTopical(t *testing.T) {
	ds := Generate(small())
	rng := rand.New(rand.NewSource(2))
	qs := ds.Queries(10, rng)
	// A paraphrase must share at least a few words with some paper of its
	// topic (it is drawn from the same lexicon).
	for _, q := range qs {
		qWords := map[string]bool{}
		for _, w := range strings.Fields(q.Text) {
			qWords[w] = true
		}
		overlap := 0
		for _, p := range ds.Graph.NodesOfType(hetgraph.Paper) {
			if ds.PrimaryTopic[p] != q.Topic {
				continue
			}
			for _, w := range strings.Fields(ds.Graph.Label(p)) {
				if qWords[w] {
					overlap++
				}
			}
		}
		if overlap < 3 {
			t.Errorf("query about topic %d shares only %d word occurrences with its topic", q.Topic, overlap)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, c := range []Config{AminerSim(0), DBLPSim(0), ACMSim(0)} {
		if c.NumPapers <= 0 || c.NumTopics <= 0 || c.Name == "" {
			t.Errorf("preset incomplete: %+v", c)
		}
	}
	if AminerSim(0).NumTopics != 7 || DBLPSim(0).NumTopics != 13 || ACMSim(0).NumTopics != 13 {
		t.Error("preset topic counts do not match Table I")
	}
}

func TestPresetConfig(t *testing.T) {
	for _, p := range Presets {
		cfg, err := PresetConfig(p.Flag, 123)
		if err != nil {
			t.Fatalf("%s: %v", p.Flag, err)
		}
		if cfg.NumPapers != 123 || cfg.Name != p.Gen(0).Name {
			t.Errorf("%s: %+v", p.Flag, cfg)
		}
	}
	if _, err := PresetConfig("nope", 0); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestLoadGraphFromPreset(t *testing.T) {
	g, err := LoadGraph("", "aminer", 120)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodesOfType(hetgraph.Paper) != 120 {
		t.Errorf("papers = %d", g.NumNodesOfType(hetgraph.Paper))
	}
	if _, err := LoadGraph("", "nope", 120); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestLoadGraphFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	ds := Generate(AminerSim(60))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Graph.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := LoadGraph(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != ds.Graph.NumNodes() {
		t.Error("loaded graph differs")
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.json"), "", 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadGraphFromAminerFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dump.txt")
	sample := "#*First Paper\n#@Ann Author\n#index1\n\n#*Second Paper\n#@Ben Writer\n#index2\n#%1\n"
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	papers := g.NodesOfType(hetgraph.Paper)
	if len(papers) != 2 || len(g.Neighbors(papers[0], hetgraph.Paper)) != 1 {
		t.Errorf("aminer load wrong: %+v", g.Stats())
	}
	if !strings.Contains(g.Label(g.NodesOfType(hetgraph.Paper)[0]), "First Paper") {
		t.Error("labels lost")
	}
}

func TestCorpus(t *testing.T) {
	ds := Generate(small())
	corpus := ds.Corpus()
	if len(corpus) != 300 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	for i, doc := range corpus {
		if doc == "" {
			t.Fatalf("empty document %d", i)
		}
	}
}

func TestDialectsDivergeSurfaces(t *testing.T) {
	// Same-topic papers in different dialects must share fewer exact
	// words than same-dialect ones on average; the stems still overlap.
	cfg := small()
	cfg.Dialects = 3
	ds := Generate(cfg)
	// Words across the corpus: at least some dialect suffix forms exist.
	suffixed := 0
	for _, doc := range ds.Corpus() {
		if strings.Contains(doc, "ation ") || strings.Contains(doc, "izer ") {
			suffixed++
		}
	}
	if suffixed == 0 {
		t.Error("no dialect-suffixed forms found in the corpus")
	}
}

func TestQueriesJSONRoundTrip(t *testing.T) {
	ds := Generate(small())
	rng := rand.New(rand.NewSource(4))
	qs := ds.Queries(5, rng)
	var buf bytes.Buffer
	if err := WriteQueriesJSON(&buf, qs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQueriesJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("%d queries after round trip, want %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i].Source != qs[i].Source || got[i].Topic != qs[i].Topic || got[i].Text != qs[i].Text {
			t.Fatalf("query %d changed", i)
		}
		if len(got[i].Truth) != len(qs[i].Truth) {
			t.Fatalf("query %d truth size changed", i)
		}
		for a := range qs[i].Truth {
			if !got[i].Truth[a] {
				t.Fatalf("query %d lost truth member %d", i, a)
			}
		}
	}
	if _, err := ReadQueriesJSON(strings.NewReader("broken")); err == nil {
		t.Error("garbage accepted")
	}
}
