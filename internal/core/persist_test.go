package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/sampling"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	g := ds.Graph
	built, err := Build(g, Options{
		Dim:         16,
		Seed:        11,
		K:           3,
		NegStrategy: sampling.RandomNegative,
		MetaPaths:   []hetgraph.MetaPath{hetgraph.PAP},
	})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, g)
	if err != nil {
		t.Fatal(err)
	}

	// Restored embeddings must be bit-identical: same vocabulary, same
	// fine-tuned table, same pooling.
	if len(loaded.Embeddings) != len(built.Embeddings) {
		t.Fatalf("embedding count %d != %d", len(loaded.Embeddings), len(built.Embeddings))
	}
	for p, v := range built.Embeddings {
		w := loaded.Embeddings[p]
		for i := range v {
			if v[i] != w[i] {
				t.Fatalf("embedding of paper %d differs after reload", p)
			}
		}
	}

	// Queries must return identical experts.
	for _, q := range ds.Queries(5, randSource(3)) {
		r1, _, _ := built.TopExperts(q.Text, 40, 10)
		r2, _, _ := loaded.TopExperts(q.Text, 40, 10)
		if len(r1) != len(r2) {
			t.Fatalf("result sizes differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Expert != r2[i].Expert {
				t.Fatalf("rank %d: %d vs %d", i, r1[i].Expert, r2[i].Expert)
			}
		}
	}

	// Options survive the round trip.
	if loaded.opts.K != 3 || loaded.opts.NegStrategy != sampling.RandomNegative {
		t.Errorf("options lost: %+v", loaded.opts)
	}
	if len(loaded.opts.MetaPaths) != 1 || loaded.opts.MetaPaths[0].String() != "P-A-P" {
		t.Errorf("meta-paths lost: %v", loaded.opts.MetaPaths)
	}
}

// TestSaveLoadAfterUpdates: a snapshot taken after online AddPaper
// mutations restores the complete live state — the updates are
// journalled inside the snapshot and re-applied on Load, so rankings
// are identical across the restart even though Load starts from the
// base graph.
func TestSaveLoadAfterUpdates(t *testing.T) {
	gen := func() *dataset.Dataset { return dataset.Generate(dataset.AminerSim(150)) }
	ds := gen()
	built, err := Build(ds.Graph, Options{Dim: 8, Seed: 2, UseKPCore: Bool(false)})
	if err != nil {
		t.Fatal(err)
	}
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	var added []hetgraph.NodeID
	for i := 0; i < 4; i++ {
		id, err := built.AddPaper(NewPaper{
			Text:    "spectral clustering of citation networks revisited",
			Authors: []hetgraph.NodeID{authors[i], authors[i+1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, id)
	}

	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore against a FRESH base graph, as a restarted process would.
	ds2 := gen()
	loaded, err := Load(&buf, ds2.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.AppliedUpdates() != 4 {
		t.Fatalf("journalled updates: %d, want 4", loaded.AppliedUpdates())
	}
	for _, id := range added {
		if loaded.g.Type(id) != hetgraph.Paper {
			t.Fatalf("added paper %d missing after reload", id)
		}
		if _, ok := loaded.Embeddings[id]; !ok {
			t.Fatalf("added paper %d lost its embedding after reload", id)
		}
	}
	for _, q := range ds.Queries(4, randSource(5)) {
		r1, _, err1 := built.TopExperts(q.Text, 40, 10)
		r2, _, err2 := loaded.TopExperts(q.Text, 40, 10)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(r1) != len(r2) {
			t.Fatalf("result sizes differ: %d vs %d", len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i].Expert != r2[i].Expert {
				t.Fatalf("query %q rank %d: %d vs %d", q.Text, i, r1[i].Expert, r2[i].Expert)
			}
		}
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(100))
	if _, err := Load(strings.NewReader("garbage"), ds.Graph); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil), ds.Graph); err == nil {
		t.Error("empty input accepted")
	}
}

// randSource is a tiny helper for deterministic query sampling in tests.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
