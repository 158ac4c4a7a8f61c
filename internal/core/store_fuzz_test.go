package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"expertfind/internal/colstore"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// assertRankingsIdentical requires got to answer like want, bit for bit:
// TopExperts (m 40, n 10) for each query, experts in order with the same
// score bits, and SimilarPapers (m 8) around each of papers.
func assertRankingsIdentical(t *testing.T, label string, want, got *Engine, queries []string, papers []hetgraph.NodeID) {
	t.Helper()
	for _, q := range queries {
		w, _, err := want.TopExperts(q, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := got.TopExperts(q, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: query %q: %d vs %d experts", label, q, len(w), len(g))
		}
		for i := range w {
			if w[i].Expert != g[i].Expert || math.Float64bits(w[i].Score) != math.Float64bits(g[i].Score) {
				t.Fatalf("%s: query %q rank %d: expert %d (%x) vs %d (%x)", label, q, i+1,
					w[i].Expert, math.Float64bits(w[i].Score), g[i].Expert, math.Float64bits(g[i].Score))
			}
		}
	}
	for _, id := range papers {
		w, _, err := want.SimilarPapers(context.Background(), id, 8)
		if err != nil {
			t.Fatalf("%s: similar(%d): %v", label, id, err)
		}
		g, _, err := got.SimilarPapers(context.Background(), id, 8)
		if err != nil {
			t.Fatalf("%s: similar(%d): %v", label, id, err)
		}
		if !slices.Equal(w, g) {
			t.Fatalf("%s: similar(%d): %v vs %v", label, id, w, g)
		}
	}
}

// updateBase is the corpus FuzzUpdateSequence writes onto: its base
// papers, authors, venues and topics, and three fixed queries.
type updateBase struct {
	papers, authors, venues, topics []hetgraph.NodeID
	queries                         []string
}

// fuzzPaper draws an update over the base graph from rng: one to three
// authors, the first sometimes repeated (kept once); a venue and a topic
// of the base graph, or none; a cited base paper and sometimes a paper
// added earlier (added, by id); and a base paper's text, an earlier
// update's text verbatim, or two base texts joined.
func (b *updateBase) fuzzPaper(g *hetgraph.Graph, rng *rand.Rand, added []NewPaper, ids []hetgraph.NodeID) NewPaper {
	pick := func(from []hetgraph.NodeID) hetgraph.NodeID { return from[rng.Intn(len(from))] }
	p := NewPaper{Text: g.Label(pick(b.papers)), Cites: []hetgraph.NodeID{pick(b.papers)}}
	for range 1 + rng.Intn(3) {
		p.Authors = append(p.Authors, pick(b.authors))
	}
	if rng.Intn(3) == 0 {
		p.Authors = append(p.Authors, p.Authors[0])
	}
	if rng.Intn(2) == 0 {
		p.Venues = []hetgraph.NodeID{pick(b.venues)}
	}
	if rng.Intn(2) == 0 {
		p.Topics = []hetgraph.NodeID{pick(b.topics)}
	}
	if len(ids) > 0 && rng.Intn(2) == 0 {
		p.Cites = append(p.Cites, pick(ids))
	}
	switch rng.Intn(3) {
	case 1:
		if len(added) > 0 {
			p.Text = added[rng.Intn(len(added))].Text
		}
	case 2:
		p.Text += " " + g.Label(pick(b.papers))
	}
	return p
}

// walBytes is the size of every WAL segment under a store's directory.
func walBytes(t *testing.T, dir string) (n int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v", err)
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// crash abandons st as a killed process would: no Close, no final
// snapshot; only its descriptors go, as the kernel's would. Then the first
// j bytes of rec, the record being appended when the process died, are
// written to the end of the last WAL segment.
func crash(t *testing.T, st *Store, rec []byte, j int) {
	t.Helper()
	if err := st.wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(st.Dir(), "wal", "wal-*.log"))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(rec[:j]); err != nil {
		t.Fatal(err)
	}
}

// FuzzUpdateSequence holds a crashed store to the engine it logged. The op
// bytes decode to AddPaper calls (fuzzPaper, seeded by the byte and its
// position) and, for bytes below 32, Store.Snapshot. Then the store
// crashes with a torn prefix of one more record (tear bytes of it, 0 for
// none) and reopens with a fuzzed mmap mode, on an exact or a PG engine.
// The reopened store must report the tear exactly when there is one,
// every acked update and no other (LastSeq), the ones since the last
// snapshot as replayed, and an empty WAL after each covering snapshot; it
// must rank, by TopExperts and by SimilarPapers around every added paper,
// Float64bits-equal to a fresh Build plus the acked updates with no log;
// save, load and save the same bytes; and rank so again after one more
// acked update, and after a second crash. A store opened with mmap on maps
// its snapshot, one opened with it off does not. A mapped engine's rows alias the snapshot's embedding
// column, clipped, exactly until an update is applied.
func FuzzUpdateSequence(f *testing.F) {
	f.Add([]byte{200, 201, 202, 203, 204}, uint16(0), uint8(0), false)
	f.Add([]byte{90, 91, 10, 92, 93}, uint16(9), uint8(1), false)
	f.Add([]byte{40, 41, 42, 43, 0}, uint16(0), uint8(2), true)
	f.Add([]byte{70, 5, 71, 72, 73, 74, 75}, uint16(30), uint8(2), false)
	f.Add([]byte{}, uint16(3), uint8(0), true)
	f.Add([]byte{33, 3, 34, 35, 36, 37, 38, 39}, uint16(17), uint8(0), true)
	f.Add([]byte{120, 121, 122, 1}, uint16(0), uint8(0), false)
	f.Fuzz(func(t *testing.T, ops []byte, tear uint16, mode uint8, pg bool) {
		ops = ops[:min(len(ops), 12)]
		gen := func() *hetgraph.Graph { return dataset.Generate(dataset.AminerSim(80)).Graph }
		build := func(g *hetgraph.Graph) (*Engine, error) {
			return Build(g, Options{Dim: 8, Seed: 5, UseKPCore: Bool(false), UsePGIndex: Bool(pg),
				Metrics: obs.NewRegistry()})
		}
		dir := t.TempDir()
		open := func(mmap colstore.Mode) *Store {
			t.Helper()
			g := gen()
			st, err := OpenStore(dir, g, func() (*Engine, error) { return build(g) },
				StoreOptions{Sync: durable.SyncNever, Mmap: mmap, Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			return st
		}

		st := open(colstore.ModeOff)
		g := st.Engine().Graph()
		base := &updateBase{papers: g.NodesOfType(hetgraph.Paper), authors: g.NodesOfType(hetgraph.Author),
			venues: g.NodesOfType(hetgraph.Venue), topics: g.NodesOfType(hetgraph.Topic)}
		for _, q := range dataset.Generate(dataset.AminerSim(80)).Queries(3, randSource(9)) {
			base.queries = append(base.queries, q.Text)
		}
		next := func(i int, b byte, acked []NewPaper, ids []hetgraph.NodeID) NewPaper {
			return base.fuzzPaper(g, rand.New(rand.NewSource(int64(i)<<8|int64(b))), acked, ids)
		}
		var acked []NewPaper
		var ids []hetgraph.NodeID
		snapSeq := 0
		for i, b := range ops {
			if b < 32 {
				if err := st.Snapshot(); err != nil {
					t.Fatal(err)
				}
				if n := walBytes(t, dir); n != 0 {
					t.Fatalf("the WAL holds %d bytes after a snapshot covering seq %d", n, len(acked))
				}
				snapSeq = len(acked)
				continue
			}
			p := next(i, b, acked, ids)
			id, err := st.Engine().AddPaper(p)
			if err != nil {
				t.Fatal(err)
			}
			acked, ids = append(acked, p), append(ids, id)
		}
		rec := durable.MarshalRecord(uint64(len(acked)+1), encodeUpdate(next(len(ops), 99, acked, ids)))
		j := int(tear) % len(rec)
		crash(t, st, rec, j)

		mmap := []colstore.Mode{colstore.ModeAuto, colstore.ModeOff, colstore.ModeOn}[mode%3]
		st2 := open(mmap)
		t.Cleanup(func() { st2.engine.CloseSnapshot() })
		e := st2.Engine()
		if mapped := e.SnapshotMapped(); mapped == (mmap == colstore.ModeOff) && mmap != colstore.ModeAuto {
			t.Fatalf("a store opened in mmap mode %v mapped its snapshot: %v", mmap, mapped)
		}
		info := st2.Recovery()
		if info.TornWALTail != (j > 0) || !info.SnapshotLoaded || info.SnapshotSeq != uint64(snapSeq) ||
			info.Replayed != len(acked)-snapSeq {
			t.Fatalf("recovery %+v after %d acked (last snapshot at %d, torn %d bytes)", info, len(acked), snapSeq, j)
		}
		if st2.LastSeq() != uint64(len(acked)) || e.LastUpdateSeq() != uint64(len(acked)) || len(e.updates) != len(acked) {
			t.Fatalf("recovered the WAL to seq %d, the engine to %d with %d updates, want %d",
				st2.LastSeq(), e.LastUpdateSeq(), len(e.updates), len(acked))
		}

		ref, err := build(gen())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range acked {
			if _, err := ref.AddPaper(p); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := e.Graph().NumNodesOfType(hetgraph.Paper), ref.Graph().NumNodesOfType(hetgraph.Paper); got != want || e.index.Len() != want {
			t.Fatalf("%d papers and %d rows after recovery, want %d", got, e.index.Len(), want)
		}
		queries := base.queries
		if len(acked) > 0 {
			queries = append(queries, acked[0].Text)
		}
		assertRankingsIdentical(t, "recovered vs rebuilt", ref, e, queries, ids)

		var saved, resaved bytes.Buffer
		if _, err := e.SaveSnapshot(&saved); err != nil {
			t.Fatal(err)
		}
		loaded, err := loadBytes(saved.Bytes(), gen())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.SaveSnapshot(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("save -> load -> save changed the snapshot (%d vs %d bytes)", saved.Len(), resaved.Len())
		}

		// The rows of a mapped load are the mapped column, clipped so an
		// insert reallocates instead of writing through it.
		var col []float32
		if e.SnapshotMapped() {
			if col, err = e.colsec.Float32s(segEmbs); err != nil {
				t.Fatal(err)
			}
			_, rows := e.index.Rows()
			aliased := &rows.Data[0] == &col[0]
			if aliased != (info.Replayed == 0) {
				t.Fatalf("mapped rows alias the column: %v, after %d replayed updates", aliased, info.Replayed)
			}
			if aliased && cap(rows.Data) != len(rows.Data) {
				t.Fatalf("mapped rows have %d spare capacity", cap(rows.Data)-len(rows.Data))
			}
		}

		p := next(len(ops)+1, 0, acked, ids)
		id, err := e.AddPaper(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AddPaper(p); err != nil {
			t.Fatal(err)
		}
		if _, rows := e.index.Rows(); col != nil && &rows.Data[0] == &col[0] {
			t.Fatal("AddPaper on a mapped engine appended in place")
		}
		queries, ids = append(queries, p.Text), append(ids, id)
		assertRankingsIdentical(t, "recovered and updated vs rebuilt", ref, e, queries, ids)
		crash(t, st2, nil, 0)
		st3 := open(mmap)
		t.Cleanup(func() { st3.wal.Close(); st3.engine.CloseSnapshot() })
		if info := st3.Recovery(); st3.LastSeq() != uint64(len(acked)+1) || info.TornWALTail ||
			info.Replayed != len(acked)+1-snapSeq {
			t.Fatalf("second recovery %+v at seq %d, want seq %d", info, st3.LastSeq(), len(acked)+1)
		}
		assertRankingsIdentical(t, "recovered twice vs rebuilt", ref, st3.Engine(), queries, ids)
	})
}
