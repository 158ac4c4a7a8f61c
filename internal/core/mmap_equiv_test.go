package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/colstore"
	"expertfind/internal/dataset"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The mmap equivalence suite: the same snapshot loaded heap-decoded and
// mmap'd must produce bit-for-bit identical rankings — expert ids,
// order, and Float64bits of every score. The corpus is built once with
// the PG-Index on (so the CSR and entry-point segments are exercised)
// and includes journalled updates, covering the
// graph-only replay path of the columnar loader.

var mmapEquivFixture = struct {
	once sync.Once
	ds   *dataset.Dataset
	eng  *Engine
	snap string // saved snapshot path
	err  error
}{}

func mmapEquivSetup(t testing.TB) (*dataset.Dataset, *Engine, string) {
	f := &mmapEquivFixture
	f.once.Do(func() {
		f.ds = dataset.Generate(dataset.AminerSim(120))
		e, err := Build(f.ds.Graph, Options{
			Dim: 8, Seed: 11, UseKPCore: Bool(false), Metrics: obs.NewRegistry(),
		})
		if err != nil {
			f.err = err
			return
		}
		// Journalled updates ride in the snapshot and are replayed
		// graph-only by the columnar loader — their embeddings must come
		// from the matrix, not a re-embed.
		authors := f.ds.Graph.NodesOfType(hetgraph.Author)
		for i := 0; i < 3; i++ {
			_, err := e.AddPaper(NewPaper{
				Text:    fmt.Sprintf("journalled mmap paper %d on expert finding", i),
				Authors: []hetgraph.NodeID{authors[i], authors[i+2]},
			})
			if err != nil {
				f.err = err
				return
			}
		}
		dir, err := os.MkdirTemp("", "mmapequiv")
		if err != nil {
			f.err = err
			return
		}
		f.snap = filepath.Join(dir, "engine.snap")
		w, err := os.Create(f.snap)
		if err != nil {
			f.err = err
			return
		}
		if _, err := e.SaveSnapshot(w); err != nil {
			f.err = err
			return
		}
		if err := w.Close(); err != nil {
			f.err = err
			return
		}
		f.eng = e
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.ds, f.eng, f.snap
}

func freshEquivGraph() *hetgraph.Graph {
	return dataset.Generate(dataset.AminerSim(120)).Graph
}

// assertRankingsIdentical compares TopExperts and SimilarPapers between
// two engines bit for bit across a deterministic query set.
func assertRankingsIdentical(t *testing.T, ds *dataset.Dataset, label string, want, got *Engine) {
	t.Helper()
	assertExpertsIdentical(t, ds, label, want, got)
	assertSimilarIdentical(t, label, want, got)
}

func assertExpertsIdentical(t *testing.T, ds *dataset.Dataset, label string, want, got *Engine) {
	t.Helper()
	for _, q := range ds.Queries(6, rand.New(rand.NewSource(21))) {
		w, _, err := want.TopExperts(q.Text, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := got.TopExperts(q.Text, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: query %q: %d vs %d experts", label, q.Text, len(w), len(g))
		}
		for i := range w {
			if w[i].Expert != g[i].Expert {
				t.Fatalf("%s: query %q rank %d: expert %d vs %d",
					label, q.Text, i+1, w[i].Expert, g[i].Expert)
			}
			if math.Float64bits(w[i].Score) != math.Float64bits(g[i].Score) {
				t.Fatalf("%s: query %q rank %d: score bits %x vs %x", label, q.Text, i+1,
					math.Float64bits(w[i].Score), math.Float64bits(g[i].Score))
			}
		}
	}
}

func assertSimilarIdentical(t *testing.T, label string, want, got *Engine) {
	t.Helper()
	papers := want.Graph().NodesOfType(hetgraph.Paper)
	for _, id := range []hetgraph.NodeID{papers[0], papers[len(papers)/2], papers[len(papers)-1]} {
		w, _, err := want.SimilarPapers(context.Background(), id, 8)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := got.SimilarPapers(context.Background(), id, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: similar(%d): %d vs %d papers", label, id, len(w), len(g))
		}
		for i := range w {
			if w[i] != g[i] {
				t.Fatalf("%s: similar(%d) rank %d: paper %d vs %d", label, id, i+1, w[i], g[i])
			}
		}
	}
}

// TestMmapEquivalenceSingleNode is the single-node acceptance check:
// the built engine, the heap-decoded load (-mmap off), and the mmap'd
// load (-mmap on) must rank identically, and the mmap'd engine must
// keep ranking identically after accepting new papers (which grow the
// matrix onto the heap — never into the read-only mapping).
func TestMmapEquivalenceSingleNode(t *testing.T) {
	ds, built, snap := mmapEquivSetup(t)

	heap, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: colstore.ModeOff})
	if err != nil {
		t.Fatal(err)
	}
	if heap.SnapshotMapped() {
		t.Fatal("ModeOff load reports a mapped snapshot")
	}
	mapped, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: colstore.ModeOn})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.CloseSnapshot()
	if !mapped.SnapshotMapped() {
		t.Fatal("ModeOn load did not map the snapshot")
	}

	assertRankingsIdentical(t, ds, "built vs heap", built, heap)
	assertRankingsIdentical(t, ds, "heap vs mmap", heap, mapped)

	// Online updates on top of the mapping: identical writes to both
	// loaded engines must keep them bit-identical, and must not touch
	// the read-only mapping (a write through it would SIGSEGV).
	for _, e := range []*Engine{heap, mapped} {
		authors := e.Graph().NodesOfType(hetgraph.Author)
		for i := 0; i < 4; i++ {
			_, err := e.AddPaper(NewPaper{
				Text:    fmt.Sprintf("post-load paper %d on graph embeddings", i),
				Authors: []hetgraph.NodeID{authors[(i*3)%len(authors)]},
			})
			if err != nil {
				t.Fatalf("add paper %d: %v", i, err)
			}
		}
	}
	assertRankingsIdentical(t, ds, "heap vs mmap after updates", heap, mapped)
}

// TestMmapEquivalenceExactEngine covers engines without a PG-Index,
// whose scan storage is the snapshot's embedding column itself: a mapped
// load scans the mapping in place, ranks bit-identically to the heap load
// and the built engine, and an AddPaper on top of it grows the rows onto
// the heap — never through the read-only mapping.
func TestMmapEquivalenceExactEngine(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(120))
	built, err := Build(ds.Graph, Options{
		Dim: 8, Seed: 11, UseKPCore: Bool(false), UsePGIndex: Bool(false), Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	add := func(e *Engine, tag string, n int) {
		t.Helper()
		authors := e.Graph().NodesOfType(hetgraph.Author)
		for i := 0; i < n; i++ {
			_, err := e.AddPaper(NewPaper{
				Text:    fmt.Sprintf("%s paper %d on expert finding", tag, i),
				Authors: []hetgraph.NodeID{authors[(i*3)%len(authors)]},
			})
			if err != nil {
				t.Fatalf("%s: add paper %d: %v", tag, i, err)
			}
		}
	}
	add(built, "journalled", 3)
	var saved bytes.Buffer
	if _, err := built.SaveSnapshot(&saved); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "exact.snap")
	if err := os.WriteFile(snap, saved.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	heap, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: colstore.ModeOff})
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: colstore.ModeOn})
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.CloseSnapshot()
	if !mapped.SnapshotMapped() || heap.SnapshotMapped() {
		t.Fatalf("mapped=%v heap=%v, want true and false", mapped.SnapshotMapped(), heap.SnapshotMapped())
	}

	// The scan's matrix IS the mapped column.
	col, err := mapped.colsec.Float32s(segEmbs)
	if err != nil {
		t.Fatal(err)
	}
	_, rows := mapped.index.Rows()
	if &rows.Data[0] != &col[0] || len(rows.Data) != len(col) {
		t.Fatal("mapped exact engine copied the embedding column instead of scanning it in place")
	}
	if cap(rows.Data) != len(rows.Data) {
		t.Fatalf("mapped rows have %d spare capacity: an append would write through the mapping",
			cap(rows.Data)-len(rows.Data))
	}
	for _, e := range []*Engine{built, heap, mapped} {
		assertEveryPaperIndexed(t, "exact", e)
	}
	assertExpertsIdentical(t, ds, "exact built vs heap", built, heap)
	assertExpertsIdentical(t, ds, "exact heap vs mmap", heap, mapped)

	// A save of the loaded engine reproduces the file byte for byte.
	var resaved bytes.Buffer
	if _, err := mapped.SaveSnapshot(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
		t.Fatalf("save -> load -> save changed the snapshot (%d vs %d bytes)", saved.Len(), resaved.Len())
	}

	for _, e := range []*Engine{built, heap, mapped} {
		add(e, "post-load", 4)
		assertEveryPaperIndexed(t, "exact after updates", e)
	}
	if _, rows := mapped.index.Rows(); &rows.Data[0] == &col[0] {
		t.Fatal("AddPaper on a mapped engine appended in place")
	}
	assertExpertsIdentical(t, ds, "exact built vs mmap after updates", built, mapped)
	assertExpertsIdentical(t, ds, "exact heap vs mmap after updates", heap, mapped)
}

// assertEveryPaperIndexed checks that e's index holds one row per paper
// of its graph, journalled and added papers included.
func assertEveryPaperIndexed(t *testing.T, label string, e *Engine) {
	t.Helper()
	papers := e.Graph().NodesOfType(hetgraph.Paper)
	if e.index.Len() != len(papers) {
		t.Fatalf("%s: %d rows for %d papers", label, e.index.Len(), len(papers))
	}
	for _, p := range papers {
		if e.index.Embedding(p) == nil {
			t.Fatalf("%s: paper %d has no row", label, p)
		}
	}
}

// assertViewsIndexRows checks that E has one home in e: the map holds one
// entry per row of the index, and each is a view of its row of the index
// matrix with cap == len.
func assertViewsIndexRows(t *testing.T, label string, e *Engine) {
	t.Helper()
	ids, rows := e.index.Rows()
	if len(e.Embeddings) != len(ids) {
		t.Fatalf("%s: %d embeddings for %d rows", label, len(e.Embeddings), len(ids))
	}
	for i, id := range ids {
		v := e.Embeddings[id]
		if len(v) != rows.Cols || &v[0] != &rows.Data[i*rows.Cols] || cap(v) != len(v) {
			t.Fatalf("%s: Embeddings[%d] is not a clipped view of row %d", label, id, i)
		}
	}
}

// TestEmbeddingsViewIndexRows holds every engine kind — built, heap-loaded
// and mmap-loaded, with and without a PG-Index — to one copy of E: the
// Embeddings map is views of the index's matrix before and after AddPapers
// that move that matrix (a built matrix is allocated to size, a loaded one
// clipped, so the first append reallocates either).
func TestEmbeddingsViewIndexRows(t *testing.T) {
	for _, usePG := range []bool{true, false} {
		built, err := Build(freshEquivGraph(), Options{Dim: 8, Seed: 11, UseKPCore: Bool(false),
			UsePGIndex: Bool(usePG), Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		snap := filepath.Join(t.TempDir(), "engine.snap")
		var saved bytes.Buffer
		if _, err := built.SaveSnapshot(&saved); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(snap, saved.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		engines := map[string]*Engine{"built": built}
		for name, mode := range map[string]colstore.Mode{"heap": colstore.ModeOff, "mmap": colstore.ModeOn} {
			e, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer e.CloseSnapshot()
			engines[name] = e
		}
		for name, e := range engines {
			label := fmt.Sprintf("%s, PG-Index %v", name, usePG)
			if (e.Index() != nil) != usePG {
				t.Fatalf("%s: Index() = %v", label, e.Index())
			}
			assertViewsIndexRows(t, label, e)
			var resaved bytes.Buffer
			if _, err := e.SaveSnapshot(&resaved); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
				t.Fatalf("%s: save -> load -> save changed the snapshot", label)
			}
			_, rows := e.index.Rows()
			before := &rows.Data[0]
			authors := e.Graph().NodesOfType(hetgraph.Author)
			for i := 0; i < 3; i++ {
				if _, err := e.AddPaper(NewPaper{Text: fmt.Sprintf("views paper %d", i),
					Authors: authors[i : i+1]}); err != nil {
					t.Fatal(err)
				}
			}
			if _, rows = e.index.Rows(); &rows.Data[0] == before {
				t.Fatalf("%s: the adds did not move the matrix", label)
			}
			assertViewsIndexRows(t, label+", after adds", e)
		}
	}
}

// TestMmapEquivalenceModeAuto pins the default: ModeAuto behaves like
// ModeOn where the platform supports mapping and like ModeOff where it
// does not — and ranks identically either way.
func TestMmapEquivalenceModeAuto(t *testing.T) {
	ds, built, snap := mmapEquivSetup(t)
	auto, err := LoadFileWith(snap, freshEquivGraph(), LoadOptions{Mmap: colstore.ModeAuto})
	if err != nil {
		t.Fatal(err)
	}
	defer auto.CloseSnapshot()
	assertRankingsIdentical(t, ds, "built vs auto", built, auto)
}

// TestSnapshotOpenersAgree pins the one-opener rule: whatever is wrong
// with a snapshot's bytes, loadSnapshot over the bytes alone, the heap
// and the mapped LoadFileWith and the follower's verifySnapshotFile all
// refuse it, with the same typed error class. A retired format version —
// 1, all-gob; 2, Θ_B inside the gob payload; 3, a gob payload before the
// columnar section — is refused by *durable.VersionError naming the
// version this build reads, never by a decode error from a
// half-interpreted file.
func TestSnapshotOpenersAgree(t *testing.T) {
	_, _, snap := mmapEquivSetup(t)
	valid, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Versions 1 to 3 opened with the EFSNAP container, whose version
	// field sat outside every checksum: rewriting it in a version-3 file
	// is what an older build's file looks like to the opener.
	parent, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	withVersion := func(v uint16) []byte {
		b := append([]byte(nil), parent...)
		binary.LittleEndian.PutUint16(b[6:8], v)
		return b
	}
	e, err := loadBytes(valid, freshEquivGraph())
	if err != nil {
		t.Fatal(err)
	}
	// A byte flipped inside a segment no loader reads — such as the int8
	// codes builds before the shadow left the index wrote — is refused like
	// one inside a segment every query touches.
	ignored := resave(t, e, func(segs []colstore.SegmentData) []colstore.SegmentData {
		return append(segs, colstore.U8Seg("qcodes", bytes.Repeat([]byte{7}, 5000)))
	})
	flipIn := func(raw []byte, segment string) []byte {
		b := append([]byte(nil), raw...)
		b[segmentMiddle(t, raw, segment)] ^= 0x20
		return b
	}
	// Row ids that do not ascend, saved with valid checksums: only the
	// content is wrong, and a loader must not rank a paper twice.
	withIDs := func(forge func(ids []hetgraph.NodeID)) []byte {
		e, err := loadBytes(valid, freshEquivGraph())
		if err != nil {
			t.Fatal(err)
		}
		ids, _ := e.index.Rows()
		forge(ids)
		var b bytes.Buffer
		if _, err := e.SaveSnapshot(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cases := []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"valid", valid, "ok"},
		{"5000 trailing bytes", append(append([]byte(nil), valid...), bytes.Repeat([]byte{0xEE}, 5000)...), "corrupt: checksum"},
		{"one byte short", valid[:len(valid)-1], "corrupt: truncated"},
		{"version-1 container", withVersion(1), "version 1"},
		{"version-2 container", withVersion(2), "version 2"},
		{"version-3 container", parent, "version 3"},
		{"version-3 meta segment", withMeta(t, e, valid, func(m []byte) []byte { m[1] = 3; return m }), "version 3"},
		{"flipped byte in the table segment", flipIn(valid, segTable), "corrupt: checksum"},
		{"flipped byte in the meta segment", flipIn(valid, segMeta), "corrupt: checksum"},
		{"flipped byte in an ignored segment", flipIn(ignored, "qcodes"), "corrupt: checksum"},
		{"duplicate row id", withIDs(func(ids []hetgraph.NodeID) { ids[1] = ids[0] }), "corrupt: content"},
		{"descending row ids", withIDs(func(ids []hetgraph.NodeID) { ids[1], ids[2] = ids[2], ids[1] }), "corrupt: content"},
	}
	class := func(err error) string {
		var ve *durable.VersionError
		var ce *durable.CorruptError
		switch {
		case err == nil:
			return "ok"
		case errors.As(err, &ve):
			if ve.Max != snapshotVersion || !strings.Contains(err.Error(),
				fmt.Sprintf("version %d is no longer supported (this build reads version %d)", ve.Got, snapshotVersion)) {
				return "version error that does not name both versions: " + err.Error()
			}
			return fmt.Sprintf("version %d", ve.Got)
		case errors.As(err, &ce) && errors.Is(err, durable.ErrTruncated):
			return "corrupt: truncated"
		case errors.As(err, &ce) && errors.Is(err, durable.ErrChecksum):
			return "corrupt: checksum"
		case errors.As(err, &ce):
			return "corrupt: content"
		}
		return "untyped: " + err.Error()
	}
	loadFile := func(mode colstore.Mode) func(string, []byte) error {
		return func(path string, _ []byte) error {
			e, err := LoadFileWith(path, freshEquivGraph(), LoadOptions{Mmap: mode})
			if err == nil {
				e.CloseSnapshot()
			}
			return err
		}
	}
	openers := []struct {
		name string
		open func(path string, b []byte) error
	}{
		{"loadBytes", func(_ string, b []byte) error {
			_, err := loadBytes(b, freshEquivGraph())
			return err
		}},
		{"LoadFileWith heap", loadFile(colstore.ModeOff)},
		{"LoadFileWith mmap", loadFile(colstore.ModeOn)},
		{"verifySnapshotFile", func(path string, _ []byte) error { return verifySnapshotFile(path) }},
	}
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("case%d.snap", i))
		if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, o := range openers {
			if got := class(o.open(path, c.bytes)); got != c.want {
				t.Errorf("%s through %s: %s, want %s", c.name, o.name, got, c.want)
			}
		}
	}
}

// segmentMiddle returns the file offset of the middle byte of the named
// segment of a snapshot.
func segmentMiddle(t *testing.T, raw []byte, name string) int {
	t.Helper()
	if _, err := colstore.OpenReaderAt(bytes.NewReader(raw), name, int64(len(raw)), 0); err != nil {
		t.Fatal(err)
	}
	// The directory is valid: walk its 64-byte entries (name, then the
	// payload's offset and length at 32 and 40; see package colstore).
	for i := 0; i < int(binary.LittleEndian.Uint32(raw[12:])); i++ {
		e := raw[20+64*i:]
		sgOff, sgLen := binary.LittleEndian.Uint64(e[32:]), binary.LittleEndian.Uint64(e[40:])
		if string(bytes.TrimRight(e[:16], "\x00")) == name && sgLen > 0 {
			return int(sgOff + sgLen/2)
		}
	}
	t.Fatalf("snapshot has no %q segment", name)
	return -1
}

// parentSnapshot is a 60 KB snapshot in format version 3, written by the
// last build whose PG-Index carried an int8 shadow of the embedding
// matrix: an EFSNAP container around a gob payload, then a columnar
// section with the qcodes, qscales and qnorms segments.
const parentSnapshot = "testdata/parent_pr23_shadow.efs"

// TestParentSnapshotRefusedByVersion pins the format decision that made
// the snapshot one columnar section: a version-3 file — here one that
// also carries the three shadow segments — is refused with
// *durable.VersionError{Got: 3, Max: 4} by every opener, heap-decoded and
// mmap'd, through a store and through the follower's validator, before a
// byte of its gob payload is read. The remedy is to rebuild from the graph.
func TestParentSnapshotRefusedByVersion(t *testing.T) {
	raw, err := os.ReadFile(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	// The file really is a shadow-carrying version-3 one: the container's
	// header, then a section whose directory names the int8 codes.
	if string(raw[:6]) != containerMagic || binary.LittleEndian.Uint16(raw[6:8]) != 3 {
		t.Fatalf("fixture starts %q, want the version-3 container", raw[:8])
	}
	if sec := raw[20+binary.LittleEndian.Uint64(raw[8:16]):]; string(sec[:8]) != "EFCOLSEG" ||
		!bytes.Contains(sec[:colstore.PageAlign], []byte("qcodes")) {
		t.Fatal("fixture's section does not declare the qcodes segment")
	}

	refused := func(how string, err error) {
		t.Helper()
		var ve *durable.VersionError
		if !errors.As(err, &ve) || ve.Got != 3 || ve.Max != 4 {
			t.Fatalf("%s: %v, want *durable.VersionError{Got: 3, Max: 4}", how, err)
		}
	}
	for _, mode := range []colstore.Mode{colstore.ModeOff, colstore.ModeOn} {
		_, err := LoadFileWith(parentSnapshot, dataset.Generate(dataset.AminerSim(60)).Graph, LoadOptions{Mmap: mode})
		refused(fmt.Sprintf("LoadFileWith, mmap mode %v", mode), err)
	}
	refused("verifySnapshotFile", verifySnapshotFile(parentSnapshot))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	built := false
	_, err = OpenStore(dir, dataset.Generate(dataset.AminerSim(60)).Graph, func() (*Engine, error) {
		built = true
		return nil, errors.New("a refused snapshot must not be rebuilt over")
	}, StoreOptions{Metrics: obs.NewRegistry()})
	refused("OpenStore", err)
	if built {
		t.Fatal("OpenStore rebuilt over a refused snapshot")
	}
}

// TestVerifySnapshotFile pins the follower-bootstrap validator: a valid
// file passes, and truncation, trailing junk, or a flipped byte in
// any region (header, directory, meta, columnar payload, padding) fails
// with a typed error.
func TestVerifySnapshotFile(t *testing.T) {
	_, _, snap := mmapEquivSetup(t)
	if err := verifySnapshotFile(snap); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if err := verifySnapshotFile(write("trunc", raw[:len(raw)-1])); err == nil {
		t.Fatal("truncated snapshot verified")
	}
	if err := verifySnapshotFile(write("trail", append(append([]byte(nil), raw...), 0xEE))); err == nil {
		t.Fatal("trailing-junk snapshot verified")
	}
	for _, off := range []int{3, 17, 40, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x10
		if err := verifySnapshotFile(write(fmt.Sprintf("flip%d", off), mut)); err == nil {
			t.Fatalf("bit flip at %d verified", off)
		}
	}
}
