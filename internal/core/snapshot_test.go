package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/colstore"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/sampling"
)

// loadBothModes restores a saved engine twice, from the stream onto the
// heap and from a file through a mapping, each against its own copy of
// the base graph, and checks that Θ_B came back bit for bit in both: the
// table is a float32 column of the snapshot, not a widened copy.
func loadBothModes(t *testing.T, built *Engine, saved []byte, graph func() *hetgraph.Graph) (heap, mapped *Engine) {
	t.Helper()
	heap, err := Load(bytes.NewReader(saved), graph())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.snap")
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err = LoadFileWith(path, graph(), LoadOptions{Mmap: colstore.ModeOn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.CloseSnapshot() })
	want := built.Encoder().Emb
	for _, loaded := range []*Engine{heap, mapped} {
		got := loaded.Encoder().Emb
		if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
			t.Fatalf("encoder table %dx%d after reload, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, x := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(x) {
				t.Fatalf("encoder weight %d: bits %08x after reload, want %08x",
					i, math.Float32bits(got.Data[i]), math.Float32bits(x))
			}
		}
		// The table is on the heap in either mode, because training and tests
		// write to it; a store through a read-only mapping would fault here.
		w := got.Data[0]
		got.Data[0] = 0
		got.Data[0] = w
	}
	return heap, mapped
}

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
	// No journalled update touches the graph, so both loads may share it.
	loaded, _ := loadBothModes(t, built, buf.Bytes(), func() *hetgraph.Graph { return g })

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
	loaded, _ := loadBothModes(t, built, buf.Bytes(), func() *hetgraph.Graph { return gen().Graph })
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

// TestSnapshotWithoutColumnsRejected: a container of this build's version
// whose payload describes no columnar section is not something Save can
// write. Every checksum holds, so it is the content that is refused —
// by type, before anything dereferences the missing shapes.
func TestSnapshotWithoutColumnsRejected(t *testing.T) {
	var payload, file bytes.Buffer
	p := snapshotPayload{Engine: enginePersist{Dim: 4, Tokens: []string{"[UNK]"}, DocFreqs: []int{0}}}
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteContainer(&file, snapshotVersion, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	segs := []colstore.SegmentData{colstore.F32Seg(segTable, make([]float32, 4))}
	if _, _, err := colstore.WriteSection(&file, int64(file.Len()), segs); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&file, dataset.Generate(dataset.AminerSim(60)).Graph)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), "no columnar section") {
		t.Fatalf("want *durable.CorruptError naming the missing section, got %v", err)
	}
}

// randSource is a tiny helper for deterministic query sampling in tests.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
