package core

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/wire"
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

// recordLog is an UpdateLog that keeps what it is given.
type recordLog struct{ records [][]byte }

func (l *recordLog) Append(payload []byte) (uint64, error) {
	l.records = append(l.records, append([]byte(nil), payload...))
	return uint64(len(l.records)), nil
}

// TestAddPaperKeepsFirstOccurrence: an id repeated within one of a new
// paper's lists is kept once, at its first position, before the update is
// logged — so a paper posted with authors [a, b, a] ranks like [a, b], and
// its logged record replays to the same graph.
func TestAddPaperKeepsFirstOccurrence(t *testing.T) {
	gen := func() *dataset.Dataset { return dataset.Generate(dataset.AminerSim(120)) }
	ds := gen()
	build := func(g *hetgraph.Graph) *Engine {
		e, err := Build(g, Options{Dim: 8, Seed: 4, UseKPCore: Bool(false), Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	topic := ds.Graph.NodesOfType(hetgraph.Topic)[0]
	a, b := authors[3], authors[5]
	text := "a paper whose author list names one author twice " + ds.Graph.Label(ds.Graph.NodesOfType(hetgraph.Paper)[0])

	repeated := NewPaper{Text: text, Authors: []hetgraph.NodeID{a, b, a}, Topics: []hetgraph.NodeID{topic, topic}}
	deduped := NewPaper{Text: text, Authors: []hetgraph.NodeID{a, b}, Topics: []hetgraph.NodeID{topic}}

	dup, log := build(ds.Graph), &recordLog{}
	dup.SetUpdateLog(log)
	id, err := dup.AddPaper(repeated)
	if err != nil {
		t.Fatal(err)
	}
	if got := dup.Graph().AuthorsOf(id); !reflect.DeepEqual(got, deduped.Authors) {
		t.Fatalf("authors stored as %v, want %v", got, deduped.Authors)
	}
	if len(repeated.Authors) != 3 {
		t.Fatalf("the caller's author list became %v", repeated.Authors)
	}
	clean := build(gen().Graph)
	if _, err := clean.AddPaper(deduped); err != nil {
		t.Fatal(err)
	}
	assertSameExperts := func(label string, want, got *Engine) {
		t.Helper()
		w, _, err1 := want.TopExperts(text, 40, 10)
		g, _, err2 := got.TopExperts(text, 40, 10)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if len(w) == 0 || len(w) != len(g) {
			t.Fatalf("%s: %d vs %d experts", label, len(w), len(g))
		}
		for i := range w {
			if w[i].Expert != g[i].Expert || math.Float64bits(w[i].Score) != math.Float64bits(g[i].Score) {
				t.Fatalf("%s: rank %d: %d (%v) vs %d (%v)", label, i+1, w[i].Expert, w[i].Score, g[i].Expert, g[i].Score)
			}
		}
	}
	assertSameExperts("[a, b, a] vs [a, b]", clean, dup)

	if len(log.records) != 1 {
		t.Fatalf("%d records logged", len(log.records))
	}
	logged, err := decodeUpdate(log.records[0])
	if err != nil || !reflect.DeepEqual(logged, deduped) {
		t.Fatalf("logged %+v (%v), want %+v", logged, err, deduped)
	}
	replayed := build(gen().Graph)
	rid, err := replayed.applyLogged(logged, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rid != id || !reflect.DeepEqual(replayed.Graph().AuthorsOf(rid), deduped.Authors) ||
		!reflect.DeepEqual(replayed.Graph().Neighbors(rid, hetgraph.Topic), dup.Graph().Neighbors(id, hetgraph.Topic)) {
		t.Fatalf("replayed paper %d: authors %v topics %v, want paper %d: %v %v", rid,
			replayed.Graph().AuthorsOf(rid), replayed.Graph().Neighbors(rid, hetgraph.Topic),
			id, deduped.Authors, dup.Graph().Neighbors(id, hetgraph.Topic))
	}
	assertSameExperts("logged vs replayed", dup, replayed)
}

// goldenRecord is the update record of goldenPaper, byte for byte:
// 'U' · version 1 · text length 40 · the text · 2 authors 7, 300 ·
// 1 venue 12 · 3 topics 40, 41, 65000 · no citations, every count and id
// a uvarint.
const goldenRecord = "5501" + "28" + "6578706572742066696e64696e67206f7665722068657465726f67656e656f757320677261706873" +
	"0207ac02" + "010c" + "032829e8fb03" + "00"

var goldenPaper = NewPaper{
	Text:    "expert finding over heterogeneous graphs",
	Authors: []hetgraph.NodeID{7, 300},
	Venues:  []hetgraph.NodeID{12},
	Topics:  []hetgraph.NodeID{40, 41, 65000},
}

// TestCodecGoldenBytes pins both formats the wire walker writes for the
// engine: the update record (the WAL's payload, and each entry of a
// snapshot's journal after its header) and the head of the snapshot's meta
// segment. A change here is a format change and needs a new version.
func TestCodecGoldenBytes(t *testing.T) {
	b := encodeUpdate(goldenPaper)
	if got := hex.EncodeToString(b); got != goldenRecord {
		t.Fatalf("update record\n got %s\nwant %s", got, goldenRecord)
	}
	if got, err := decodeUpdate(b); err != nil || !reflect.DeepEqual(got, goldenPaper) {
		t.Fatalf("golden record decoded to %+v, %v", got, err)
	}

	// A snapshot is one section at byte 0; its meta segment opens with
	// 'S', version 4, then the options, K first as an int64.
	valid, _ := validSnapshotBytes(t)
	if string(valid[:8]) != "EFCOLSEG" {
		t.Fatalf("snapshot starts %q, want the section magic", valid[:8])
	}
	meta := savedMeta(t, valid)
	want := "5304" + "0400000000000000" // K = 4, the default
	if got := hex.EncodeToString(meta[:10]); got != want {
		t.Fatalf("meta header\n got %s\nwant %s", got, want)
	}
}

// oldGobRecord is an update record as builds before format version 4
// wrote it: a gob stream of a struct of []int32 lists named persistUpdate.
const oldGobRecord = "537f0301010d7065727369737455706461746501ff80000105010454657874010c0001" +
	"07417574686f727301ff8200010656656e75657301ff82000106546f7069637301ff8200" +
	"0105436974657301ff8200000015ff81020101075b5d696e74333201ff8200010400003e" +
	"ff8001286578706572742066696e64696e67206f7665722068657465726f67656e656f75" +
	"732067726170687301020efe025801011801035052fd01fbd000"

// TestOldUpdateRecordRefused: a record an older build logged is not
// half-read. It, and every other way a record can lie, is refused with a
// *wire.Error (which replay reports as a *durable.CorruptError naming the
// record), never a panic and never a paper.
func TestOldUpdateRecordRefused(t *testing.T) {
	good, err := hex.DecodeString(goldenRecord)
	if err != nil {
		t.Fatal(err)
	}
	old, err := hex.DecodeString(oldGobRecord)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"gob record":      old,
		"empty":           nil,
		"version 2":       mutate(func(b []byte) []byte { b[1] = 2; return b }),
		"truncated":       good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"text too long":   mutate(func(b []byte) []byte { b[2] = 0x7f; return b }),
		"lying count":     mutate(func(b []byte) []byte { return append(b[:43], 0xff, 0xff, 0xff, 0xff, 0x0f) }),
		"id overflows":    mutate(func(b []byte) []byte { return append(b[:43], 1, 0x80, 0x80, 0x80, 0x80, 0x08, 0, 0, 0) }),
		"overlong zero":   mutate(func(b []byte) []byte { return append(b[:43], 1, 0x80, 0x00, 0, 0, 0) }),
		"uvarint runs on": mutate(func(b []byte) []byte { return append(b[:43], bytes.Repeat([]byte{0xff}, 11)...) }),
	}
	for name, b := range cases {
		p, err := decodeUpdate(b)
		var we *wire.Error
		if !errors.As(err, &we) {
			t.Errorf("%s: decoded %+v, %v; want a *wire.Error", name, p, err)
		}
	}
	if p, err := decodeUpdate(old); err == nil || !strings.Contains(err.Error(), `header "S\x7f", want tag 'U' version 1`) {
		t.Fatalf("the gob record: %+v, %v; want it refused at its header", p, err)
	}
}

// FuzzUpdateRecord: whatever the bytes, decodeUpdate does not panic,
// refuses with a *wire.Error only, builds nothing larger than the record
// (a count is checked against the bytes that remain before anything is
// allocated for it), and anything it accepts encodes back to the bytes it
// came from.
func FuzzUpdateRecord(f *testing.F) {
	good, _ := hex.DecodeString(goldenRecord)
	old, _ := hex.DecodeString(oldGobRecord)
	empty := encodeUpdate(NewPaper{})
	for _, seed := range [][]byte{good, old, empty, nil, good[:2], append(good[:43:43], 0xff, 0xff, 0xff, 0xff, 0x0f)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodeUpdate(b)
		if err != nil {
			var we *wire.Error
			if !errors.As(err, &we) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if n := len(p.Text) + len(p.Authors) + len(p.Venues) + len(p.Topics) + len(p.Cites); n > len(b) {
			t.Fatalf("%d bytes of text and ids decoded from %d bytes", n, len(b))
		}
		if again := encodeUpdate(p); !bytes.Equal(again, b) {
			t.Fatalf("an accepted record does not encode back to itself: %x", again)
		}
	})
}
