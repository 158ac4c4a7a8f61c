package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
	"expertfind/internal/obs"
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

// TestSnapshotOpenersAgree pins the one-opener rule: whatever is wrong
// with a snapshot's bytes, loadSnapshot over the bytes alone, the heap
// and the mapped LoadFileWith and the follower's verifySnapshotFile all
// refuse it, with the same typed error class. A retired format version —
// 1, all-gob; 2, Θ_B inside the gob payload; 3, a gob payload before the
// columnar section — is refused by *durable.VersionError naming the
// version this build reads, never by a decode error from a
// half-interpreted file.
func TestSnapshotOpenersAgree(t *testing.T) {
	valid, _ := validSnapshotBytes(t)
	fresh := func() *hetgraph.Graph { return dataset.Generate(dataset.AminerSim(60)).Graph }
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
	e, err := loadBytes(valid, fresh())
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
		e, err := loadBytes(valid, fresh())
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
			e, err := LoadFileWith(path, fresh(), LoadOptions{Mmap: mode})
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
			_, err := loadBytes(b, fresh())
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
	raw, _ := validSnapshotBytes(t)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := verifySnapshotFile(write("valid", raw)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
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
