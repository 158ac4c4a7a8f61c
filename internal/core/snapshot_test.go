package core

import (
	"bytes"
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
	heap, err := loadBytes(saved, graph())
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
	if _, err := built.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// No journalled update touches the graph, so both loads may share it.
	loaded, _ := loadBothModes(t, built, buf.Bytes(), func() *hetgraph.Graph { return g })

	// Restored embeddings must be bit-identical: same vocabulary, same
	// fine-tuned table, same pooling.
	if loaded.index.Len() != built.index.Len() {
		t.Fatalf("embedding count %d != %d", loaded.index.Len(), built.index.Len())
	}
	ids, _ := built.index.Rows()
	for _, p := range ids {
		v, w := built.index.Embedding(p), loaded.index.Embedding(p)
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
// journalled inside the snapshot and re-applied on load, so rankings
// are identical across the restart even though the load starts from the
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
	if _, err := built.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore against a FRESH base graph, as a restarted process would.
	loaded, _ := loadBothModes(t, built, buf.Bytes(), func() *hetgraph.Graph { return gen().Graph })
	if len(loaded.updates) != 4 {
		t.Fatalf("journalled updates: %d, want 4", len(loaded.updates))
	}
	for _, id := range added {
		if loaded.g.Type(id) != hetgraph.Paper {
			t.Fatalf("added paper %d missing after reload", id)
		}
		if loaded.index.Embedding(id) == nil {
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
	if _, err := loadBytes([]byte("garbage"), ds.Graph); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := loadBytes(nil, ds.Graph); err == nil {
		t.Error("empty input accepted")
	}
}

// TestSnapshotWithoutColumnsRejected: a section of this build's version
// whose meta segment checks out but that carries no embedding matrix is not
// something SaveSnapshot can write. Every checksum holds, so it is the
// content that is refused — by type, naming the missing segment.
func TestSnapshotWithoutColumnsRejected(t *testing.T) {
	valid, _ := validSnapshotBytes(t)
	g := dataset.Generate(dataset.AminerSim(60)).Graph
	e, err := loadBytes(valid, g)
	if err != nil {
		t.Fatal(err)
	}
	// meta and the encoder table only
	forged := resave(t, e, func(segs []colstore.SegmentData) []colstore.SegmentData { return segs[:2] })
	_, err = loadBytes(forged, dataset.Generate(dataset.AminerSim(60)).Graph)
	var ce *durable.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(err.Error(), `no segment "embs"`) {
		t.Fatalf("want *durable.CorruptError naming the missing segment, got %v", err)
	}
}

// savedMeta is the meta segment of snapshot bytes.
func savedMeta(t testing.TB, saved []byte) []byte {
	t.Helper()
	sec, err := colstore.OpenReaderAt(bytes.NewReader(saved), "<bytes>", int64(len(saved)), 0)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := sec.Bytes(segMeta)
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

// resave writes e's snapshot again with its segments, meta first, passed
// through forge: every checksum holds over what forge returns, so only
// what the segments say can be refused.
func resave(t testing.TB, e *Engine, forge func([]colstore.SegmentData) []colstore.SegmentData) []byte {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	segs, err := e.snapshotSegmentsLocked()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if _, _, err := colstore.WriteSection(&b, 0, forge(segs)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// withMeta is resave with the meta segment replaced by forge's copy of the
// saved one.
func withMeta(t testing.TB, e *Engine, saved []byte, forge func(meta []byte) []byte) []byte {
	meta := forge(bytes.Clone(savedMeta(t, saved)))
	return resave(t, e, func(segs []colstore.SegmentData) []colstore.SegmentData {
		segs[0] = colstore.U8Seg(segMeta, meta)
		return segs
	})
}

// loadBytes opens snapshot bytes on the heap through loadSnapshot, the
// path LoadFileWith takes with colstore.ModeOff, without a file.
func loadBytes(b []byte, g *hetgraph.Graph) (*Engine, error) {
	return loadSnapshot(bytes.NewReader(b), "<bytes>", int64(len(b)), colstore.ModeOff, g, nil)
}

// randSource is a tiny helper for deterministic query sampling in tests.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
