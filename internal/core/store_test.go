package core

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/durable/faultfs"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// storeFixture regenerates the deterministic base graph and the build
// function a store needs. Every call returns a FRESH graph, exactly as
// a restarted process would reload it from disk.
func storeFixture() (*dataset.Dataset, func(g *hetgraph.Graph) func() (*Engine, error)) {
	mk := func(g *hetgraph.Graph) func() (*Engine, error) {
		return func() (*Engine, error) {
			// UseKPCore=false skips sampling+training: fast and fully
			// deterministic, which is what restart tests need.
			return Build(g, Options{Dim: 8, Seed: 5, UseKPCore: Bool(false)})
		}
	}
	ds := dataset.Generate(dataset.AminerSim(120))
	return ds, mk
}

// addTestPapers accepts n updates through the engine, returning the ids.
func addTestPapers(t *testing.T, e *Engine, n int) []hetgraph.NodeID {
	t.Helper()
	authors := e.Graph().NodesOfType(hetgraph.Author)
	if len(authors) < 2 {
		t.Fatal("fixture has too few authors")
	}
	ids := make([]hetgraph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		id, err := e.AddPaper(NewPaper{
			Text:    "durable graph embedding recovery study " + string(rune('a'+i)),
			Authors: []hetgraph.NodeID{authors[i%len(authors)], authors[(i+1)%len(authors)]},
		})
		if err != nil {
			t.Fatalf("add paper %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	return ids
}

func openTestStore(t *testing.T, dir string) (*Store, *dataset.Dataset) {
	t.Helper()
	ds, mk := storeFixture()
	st, err := OpenStore(dir, ds.Graph, mk(ds.Graph), StoreOptions{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return st, ds
}

// TestStoreLostLogResumesAfterSnapshot: a store whose snapshot covers
// sequence S but whose log directory is gone numbers its next record
// S+1, never 1 — a record numbered below the snapshot's own sequence
// would be skipped by the next recovery, an acknowledged write lost.
func TestStoreLostLogResumesAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 2)
	if err := st.Close(); err != nil { // snapshot covers seq 2
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
		t.Fatal(err)
	}

	st2, _ := openTestStore(t, dir)
	id := addTestPapers(t, st2.Engine(), 1)[0]
	if got := st2.LastSeq(); got != 3 {
		t.Fatalf("first record after a lost log got seq %d, want 3", got)
	}
	// Crash (no Close), recover: the acknowledged paper must be replayed.
	st3, _ := openTestStore(t, dir)
	defer st3.Close()
	if rec := st3.Recovery(); rec.Replayed != 1 {
		t.Errorf("replayed %d records, want 1", rec.Replayed)
	}
	if st3.Engine().Graph().NumNodes() <= int(id) || st3.Engine().Graph().Type(id) != hetgraph.Paper {
		t.Errorf("acknowledged paper %d missing after recovery", id)
	}
}

// TestStoreCorruptSnapshotFailsLoudly: a flipped byte in the snapshot
// must abort recovery with a typed checksum error, not serve bad state.
func TestStoreCorruptSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, SnapshotFileName)
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.CorruptFileByte(snap, fi.Size()/2, 0x20); err != nil {
		t.Fatal(err)
	}

	ds, mk := storeFixture()
	_, err = OpenStore(dir, ds.Graph, mk(ds.Graph), StoreOptions{Metrics: obs.NewRegistry()})
	if !errors.Is(err, durable.ErrChecksum) {
		t.Fatalf("corrupt snapshot: want ErrChecksum, got %v", err)
	}
	var ce *durable.CorruptError
	if !errors.As(err, &ce) || ce.Path == "" {
		t.Fatalf("corrupt snapshot error lacks file context: %v", err)
	}
}

// TestStoreCorruptWALInteriorFailsLoudly: damage that is not a tail
// tear aborts recovery with a typed error.
func TestStoreCorruptWALInteriorFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 3)
	// Crash without Close; flip a byte inside the FIRST record.
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err := faultfs.CorruptFileByte(segs[0], 20, 0x80); err != nil {
		t.Fatal(err)
	}

	ds, mk := storeFixture()
	_, err := OpenStore(dir, ds.Graph, mk(ds.Graph), StoreOptions{Metrics: obs.NewRegistry()})
	if !errors.Is(err, durable.ErrChecksum) {
		t.Fatalf("corrupt WAL interior: want ErrChecksum, got %v", err)
	}
}

// TestStoreLogPastSnapshotFailsLoudly: a snapshot at S over a log whose
// first record is S+5 has lost four acknowledged updates. Recovery refuses
// it with a typed error instead of replaying S+5 onwards around the hole.
func TestStoreLogPastSnapshotFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, ds := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 2)
	if err := st.Close(); err != nil { // snapshot covers seq 2
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	w, err := durable.OpenWAL(walDir, durable.WALOptions{InitialSeq: 7})
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeUpdate(NewPaper{Text: "an update past the hole",
		Authors: ds.Graph.NodesOfType(hetgraph.Author)[:1]})
	if seq, err := w.Append(payload); err != nil || seq != 7 {
		t.Fatalf("append: seq %d, %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ds, mk := storeFixture()
	_, err = OpenStore(dir, ds.Graph, mk(ds.Graph), StoreOptions{Metrics: obs.NewRegistry()})
	var ce *durable.CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("snapshot at 2 over a log from 7: %v, want a *durable.CorruptError", err)
	}
}

// failingUpdateLog refuses every append.
type failingUpdateLog struct{}

func (failingUpdateLog) Append([]byte) (uint64, error) { return 0, faultfs.ErrInjected }

// TestAddPaperRejectedWhenLogFails: a WAL failure must reject the
// update entirely — nothing applied, typed error out.
func TestAddPaperRejectedWhenLogFails(t *testing.T) {
	ds, mk := storeFixture()
	e, err := mk(ds.Graph)()
	if err != nil {
		t.Fatal(err)
	}
	e.SetUpdateLog(failingUpdateLog{})
	papers := e.Graph().NumNodesOfType(hetgraph.Paper)
	authors := e.Graph().NodesOfType(hetgraph.Author)
	_, err = e.AddPaper(NewPaper{Text: "x", Authors: authors[:1]})
	var ule *UpdateLogError
	if !errors.As(err, &ule) {
		t.Fatalf("want *UpdateLogError, got %v", err)
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("cause lost: %v", err)
	}
	if got := e.Graph().NumNodesOfType(hetgraph.Paper); got != papers {
		t.Errorf("update applied despite log failure: %d papers, want %d", got, papers)
	}
	if len(e.updates) != 0 {
		t.Error("journal grew despite log failure")
	}
}

// TestStoreCloseWritesFinalSnapshot: Close checkpoints, so the next
// open replays nothing.
func TestStoreCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	st2, _ := openTestStore(t, dir)
	defer st2.Close()
	if rec := st2.Recovery(); rec.Replayed != 0 || rec.SnapshotSeq != 2 {
		t.Errorf("recovery after clean close: %+v", rec)
	}
}

// TestAddPaperSpans: a journaled AddPaper splits the time it holds the
// write lock into update/log and update/apply, in the stage family the
// build and query spans use; a replayed update journals nothing, so it
// records no span at all.
func TestAddPaperSpans(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	names := []string{"update", "update/log", "update/apply"}
	counts := func(e *Engine) (c [3]uint64) {
		for i, name := range names {
			c[i] = e.Metrics().Histogram("expertfind_stage_seconds", "", nil, obs.L("stage", name)).Count()
		}
		return c
	}
	before := counts(st.Engine())
	addTestPapers(t, st.Engine(), 3)
	after := counts(st.Engine())
	for i, name := range names {
		if got := after[i] - before[i]; got != 3 {
			t.Errorf("stage %s recorded %d times for 3 updates", name, got)
		}
	}
	// Crash, then replay of the three into the reopened store's own
	// registry, where the loaded engine records.
	st2, _ := openTestStore(t, dir)
	defer st2.Close()
	if st2.Recovery().Replayed != 3 || counts(st2.Engine()) != [3]uint64{} {
		t.Errorf("replayed %d updates, stage counts %v, want 3 and none",
			st2.Recovery().Replayed, counts(st2.Engine()))
	}
}

// TestReopenedEngineRecordsIntoStoreRegistry: an engine a store loads
// records its queries in the registry the store was opened with, not in
// the process-wide one.
func TestReopenedEngineRecordsIntoStoreRegistry(t *testing.T) {
	dir := t.TempDir()
	st, ds := openTestStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st2, err := OpenStore(dir, ds.Graph, nil, StoreOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Engine().Metrics() != reg {
		t.Fatal("the loaded engine does not record into the store's registry")
	}
	if _, _, err := st2.Engine().TopExperts(ds.Corpus()[0][:30], 20, 5); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("expertfind_queries_total", "").Value(); got != 1 {
		t.Errorf("expertfind_queries_total = %v in the store's registry, want 1", got)
	}
}
