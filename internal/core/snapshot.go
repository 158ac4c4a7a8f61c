package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
	"expertfind/internal/wire"
)

// The offline pipeline (§III) runs once; the online stage (§IV) serves
// queries. SaveSnapshot and LoadFileWith split the two across process
// lifetimes: SaveSnapshot writes the fine-tuned parameters Θ_B, the
// embeddings E, the PG-Index, the configuration, and the journal of
// online updates accepted since the build; LoadFileWith restores a
// query-ready engine against the same base graph by adopting those
// blocks as they are and re-applying the journalled updates to the graph.
//
// One format, version 4: a snapshot file is one columnar section
// (internal/colstore) starting at byte 0, and nothing else. Θ_B, the
// embedding matrix E, the row ids and the PG-Index CSR are segments, and
// the scalars and strings are the meta segment's bytes, one wire walk
// with uvarint counts and lengths:
//
//	meta     'S' · version u8 (4) · options · vocab · index ·
//	         LastSeq uvarint · n uvarint · n × update
//	options  K i64 · meta-paths (n · n × str) · SampleFraction f64 ·
//	         NegStrategy u8 · NegPerPos i64 · MaxPositivesPerSeed i64 ·
//	         Dim i64 · EF i64 · Seed i64 · UsePGIndex bool
//	vocab    NumDocs uvarint · n uvarint · n × { token str · doc freq uvarint }
//	index    has a graph bool · Nav i32
//	update   the WAL's update record without its header (update.go)
//
// The payoff is the load path: nothing is re-embedded or rebuilt, and
// when the file is mmap'd (LoadOptions.Mmap) the matrix and adjacency are
// zero-copy views of the page cache — the corpus never has to fit in RAM,
// pages fault in on demand and the kernel evicts them under pressure.
// Rankings are bit-identical either way: the bytes are the bytes.
//
// A truncated, bit-flipped or foreign file is rejected with a typed error
// (durable.ErrTruncated, ErrChecksum, ErrBadMagic) before a meta byte is
// interpreted, and a meta segment the walk refuses is a
// *durable.CorruptError — never a silently half-loaded engine. Versions 1
// to 3 wrapped a gob payload in an EFSNAP container; such a file, like a
// meta segment of another version, is a *durable.VersionError: rebuild
// from the graph.

const (
	// snapshotVersion is the format version SaveSnapshot writes and the
	// only one a load reads, after tagSnapshot at the meta segment's head.
	snapshotVersion      = 4
	tagSnapshot     byte = 'S'
	// containerMagic opens the files versions 1 to 3 wrote, their version
	// following as a little-endian uint16.
	containerMagic = "EFSNAP"
)

// Segment names inside the section.
const (
	segMeta    = "meta"    // u8, the snapshotMeta walk
	segTable   = "table"   // float32, vocabulary x Dim row-major encoder table Θ_B
	segEmbs    = "embs"    // float32, Rows x Dim row-major embedding matrix
	segIDs     = "ids"     // int32, paper node id of each row
	segNbrOff  = "nbroff"  // uint64, Rows+1 CSR offsets
	segNbrDat  = "nbrdat"  // int32, concatenated neighbour lists
	segEntries = "entries" // int32, PG-Index entry points
)

// snapshotMeta is the content of the meta segment: the build options
// (function-typed and pointer fields excluded), the vocabulary the table
// is over with its IDF counts, the index scalars, and the journal of
// online updates the engine has accepted with the WAL sequence it
// reaches. Restoring it therefore reproduces the live state, and WAL
// replay only needs records past lastSeq.
type snapshotMeta struct {
	opts     Options
	tokens   []string
	docFreqs []int
	numDocs  int
	hasIndex bool
	nav      int32
	lastSeq  uint64
	updates  []NewPaper
}

// walk writes or reads the meta segment after its header.
func (m *snapshotMeta) walk(w *wire.Walker) {
	o := &m.opts
	wire.I64(w, &o.K)
	for i := range wire.List(w, &o.MetaPaths, 1) {
		s := o.MetaPaths[i].String()
		if w.Str(&s); !w.Writing() {
			mp, err := hetgraph.ParseMetaPath(s)
			if err != nil {
				w.Fail("%v", err)
			}
			o.MetaPaths[i] = mp
		}
	}
	w.F64(&o.SampleFraction)
	wire.U8(w, &o.NegStrategy)
	wire.I64(w, &o.NegPerPos)
	wire.I64(w, &o.MaxPositivesPerSeed)
	if wire.I64(w, &o.Dim); o.Dim <= 0 {
		w.Fail("embedding dimension %d", o.Dim)
	}
	wire.I64(w, &o.EF)
	wire.I64(w, &o.Seed)
	usePG := boolOpt(o.UsePGIndex, true)
	w.Bool(&usePG)
	o.UsePGIndex = Bool(usePG)

	wire.Uvarint(w, &m.numDocs)
	if n := w.Count(len(m.tokens), 2); !w.Writing() {
		m.tokens, m.docFreqs = make([]string, n), make([]int, n)
	}
	for i := range m.tokens {
		w.Str(&m.tokens[i])
		wire.Uvarint(w, &m.docFreqs[i])
	}
	w.Bool(&m.hasIndex)
	wire.I32(w, &m.nav)
	wire.Uvarint(w, &m.lastSeq)
	for i := range wire.List(w, &m.updates, 5) {
		m.updates[i].walk(w)
	}
}

// LoadOptions configures how LoadFileWith materialises a snapshot.
type LoadOptions struct {
	// Mmap selects how the columnar section is accessed: ModeAuto (zero
	// value) maps it when the platform supports mmap and falls back to
	// heap reads otherwise, ModeOn requires the mapping, ModeOff forces
	// heap reads.
	Mmap colstore.Mode
}

// SaveSnapshot serialises the engine — fine-tuned encoder, embeddings,
// index, configuration, and the journal of accepted online updates — as
// one checksummed columnar section, and returns the WAL sequence number
// the written snapshot covers: every update with sequence <= lastSeq is
// inside the snapshot, so WAL segments up to it can be truncated once the
// bytes are durably on disk. It holds the engine's read lock, so it can
// run while queries are served but not mid-update.
func (e *Engine) SaveSnapshot(w io.Writer) (lastSeq uint64, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	segs, err := e.snapshotSegmentsLocked()
	if err == nil {
		_, _, err = colstore.WriteSection(w, 0, segs)
	}
	if err != nil {
		return 0, fmt.Errorf("core: save: %w", err)
	}
	return e.walSeq, nil
}

// snapshotSegmentsLocked is the snapshot's every segment, meta first.
// Caller holds e.mu (read). The column segments view live engine storage
// — they are only valid until the lock is released, which is exactly long
// enough to write them out.
func (e *Engine) snapshotSegmentsLocked() ([]colstore.SegmentData, error) {
	vocab, c := e.enc.Vocab(), e.index.Columns()
	m := snapshotMeta{opts: e.opts, numDocs: vocab.NumDocs(), hasIndex: e.index.HasGraph(), nav: c.Nav,
		lastSeq: e.walSeq, updates: e.updates}
	for id := range vocab.Size() {
		m.tokens = append(m.tokens, vocab.Token(textenc.TokenID(id)))
		m.docFreqs = append(m.docFreqs, vocab.DocFreq(textenc.TokenID(id)))
	}
	w := wire.Writer(make([]byte, 0, 64+16*len(m.tokens)), wire.Varint)
	w.Header(tagSnapshot, snapshotVersion)
	m.walk(&w)
	if err := w.Err(); err != nil {
		return nil, err
	}
	segs := []colstore.SegmentData{
		colstore.U8Seg(segMeta, w.Bytes()),
		colstore.F32Seg(segTable, e.enc.Emb.Data),
		colstore.F32Seg(segEmbs, c.Embs),
		colstore.I32Seg(segIDs, c.IDs),
	}
	if m.hasIndex {
		segs = append(segs,
			colstore.U64Seg(segNbrOff, c.NbrOff),
			colstore.I32Seg(segNbrDat, c.NbrDat),
			colstore.I32Seg(segEntries, c.Entries))
	}
	return segs, nil
}

// LoadFileWith restores an engine from a snapshot file SaveSnapshot
// wrote: it verifies the section (magic, directory, every segment
// checksum), decodes the meta segment, adopts the saved encoder table,
// embedding matrix and PG-Index as they are, and re-applies the
// journalled online updates to g. The graph must be the base graph the
// engine was built over (same node ids); the load cannot verify that
// beyond shape checks. o.Mmap decides whether the columnar section is
// mmap'd (zero-copy views, corpus larger than RAM) or read onto the
// heap; the two modes produce bit-identical engines, only residency
// differs. The engine records into obs.Default().
//
// Failure modes are typed and name the path: errors.Is(err,
// durable.ErrTruncated / ErrChecksum / ErrBadMagic) and
// errors.As(&durable.VersionError{}, &durable.CorruptError{})
// distinguish damage classes, and every decode error carries the byte
// offset where parsing stopped.
func LoadFileWith(path string, g *hetgraph.Graph, o LoadOptions) (*Engine, error) {
	return loadFile(path, g, o.Mmap, nil)
}

// loadFile is LoadFileWith recording into reg (obs.Default() when nil):
// a store or follower hands its own registry to the engine it opens.
func loadFile(path string, g *hetgraph.Graph, mode colstore.Mode, reg *obs.Registry) (*Engine, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// The file handle is only needed during the load: a mapping
	// survives Close, and heap mode materialises every segment before
	// loadSnapshot returns.
	defer f.Close()
	return loadSnapshot(f, path, size, mode, g, reg)
}

// verifySnapshotFile checks everything of a snapshot file that needs no
// graph: every CRC, the file's end, the meta segment and the content the
// segments must agree on (shapes, ascending row ids, adjacency). A
// replication follower runs it on a downloaded snapshot before letting it
// replace anything, so a torn or forged download fails here, typed.
func verifySnapshotFile(path string) error {
	f, size, err := openSized(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sec, err := openSnapshot(f, path, size, colstore.ModeOff)
	if err != nil {
		return err
	}
	defer sec.Close()
	_, _, err = engineFromColumns(path, sec)
	return contentError(path, err)
}

func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// openSnapshot is the one way snapshot bytes are accepted, whichever
// entry point they came through: a file a retired build wrote refused by
// its container's magic and version, then the columnar section at byte 0
// with its directory and every segment CRC, then the end of the source,
// which must be the section's final page boundary — readable bytes past
// it mean a concatenated or doubly-written file, never a legitimate one.
// src is the whole snapshot, size bytes long; when it is a file, mode
// decides whether the returned section maps it (a stream's bytes can only
// be read onto the heap).
func openSnapshot(src io.ReaderAt, name string, size int64, mode colstore.Mode) (sec *colstore.Section, err error) {
	var head [len(containerMagic) + 2]byte
	if n, _ := src.ReadAt(head[:], 0); n == len(head) && string(head[:len(containerMagic)]) == containerMagic {
		return nil, &durable.VersionError{Path: name, Got: binary.LittleEndian.Uint16(head[len(containerMagic):]),
			Max: snapshotVersion}
	}
	if f, ok := src.(*os.File); ok {
		sec, err = colstore.Open(f, 0, mode)
	} else {
		sec, err = colstore.OpenReaderAt(src, name, size, 0)
	}
	if err != nil {
		return nil, err
	}
	if aligned := colstore.AlignUp(sec.End()); size != aligned {
		sec.Close()
		return nil, &durable.CorruptError{Path: name, Offset: aligned,
			Detail: "trailing bytes after snapshot", Err: durable.ErrChecksum}
	}
	return sec, nil
}

// loadSnapshot opens a snapshot, assembles the engine it describes,
// recording into reg, and re-applies its journal to g.
func loadSnapshot(src io.ReaderAt, name string, size int64, mode colstore.Mode, g *hetgraph.Graph, reg *obs.Registry) (*Engine, error) {
	sec, err := openSnapshot(src, name, size, mode)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	e, updates, err := engineFromColumns(name, sec)
	if err == nil {
		e.useRegistry(reg)
		err = e.replayJournal(g, updates)
	}
	if err != nil {
		sec.Close()
		return nil, fmt.Errorf("core: load: %w", contentError(name, err))
	}
	if sec.Mapped {
		e.colsec = sec
	}
	return e, nil
}

// contentError types an error found after every checksum held: unless
// the meta segment's version was refused, what is wrong is the snapshot's
// content, so it is a *durable.CorruptError.
func contentError(name string, err error) error {
	var ce *durable.CorruptError
	var ve *durable.VersionError
	if err == nil || errors.As(err, &ce) || errors.As(err, &ve) {
		return err
	}
	return &durable.CorruptError{Path: name, Detail: "snapshot content", Err: err}
}

// decodeMeta reads the meta segment of sec. Its bytes passed their
// checksum, so a walk that stops early means a build that wrote another
// format: a different version is a *durable.VersionError, anything else a
// *durable.CorruptError carrying the byte of the segment where the walk
// stopped.
func decodeMeta(sec *colstore.Section, name string) (*snapshotMeta, error) {
	b, err := sec.Bytes(segMeta)
	if err != nil {
		return nil, err
	}
	if len(b) >= 2 && b[0] == tagSnapshot && b[1] != snapshotVersion {
		return nil, &durable.VersionError{Path: name, Got: uint16(b[1]), Max: snapshotVersion}
	}
	var m snapshotMeta
	r := wire.Reader(b, wire.Varint)
	r.Header(tagSnapshot, snapshotVersion)
	m.walk(&r)
	if err := r.Done(); err != nil {
		return nil, &durable.CorruptError{Path: name, Offset: int64(err.(*wire.Error).At),
			Detail: "snapshot meta segment", Err: err}
	}
	return &m, nil
}

// engineFromColumns assembles an engine without its graph from the
// CRC-verified section (name labels its source), and returns the meta
// segment's journal. The encoder table, matrix and adjacency are adopted
// as-is (the latter two zero-copy when sec is mapped). An error is a
// *durable.CorruptError, a *durable.VersionError or a plain one for
// contentError.
func engineFromColumns(name string, sec *colstore.Section) (*Engine, []NewPaper, error) {
	// Residency discipline: the assembly below walks the meta segment and
	// the small columns (row ids, CSR offsets, entry points) in full,
	// so zero-copy views of them would fault their pages resident during
	// load for no benefit — read those through the file onto the heap.
	// The encoder table goes there too: every query token touches it, and
	// it stays writable (fine-tuning and tests write to Emb).
	// The blocks that actually pay off lazily — the embedding matrix and
	// the concatenated neighbour lists — stay views of the mapping and page
	// in on first query touch.
	heap := sec.Materialized()
	m, err := decodeMeta(heap, name)
	if err != nil {
		return nil, nil, err
	}
	table, err := heap.Float32s(segTable)
	if err != nil {
		return nil, nil, fmt.Errorf("encoder table: %w", err)
	}
	vocab, err := textenc.NewVocabFromTokens(m.tokens, m.docFreqs, m.numDocs)
	if err != nil {
		return nil, nil, err
	}
	// The shape check (vocabulary x Dim against the segment's length,
	// overflow included) is the constructor's: shapes come from a file.
	enc, err := textenc.NewEncoderWithTable(vocab, m.opts.Dim, table)
	if err != nil {
		return nil, nil, err
	}

	c := pgindex.Columns{Dim: m.opts.Dim, Nav: m.nav}
	if c.Embs, err = sec.Float32s(segEmbs); err != nil {
		return nil, nil, fmt.Errorf("embedding matrix: %w", err)
	}
	if c.IDs, err = colstore.Int32s[hetgraph.NodeID](heap, segIDs); err != nil {
		return nil, nil, fmt.Errorf("row ids: %w", err)
	}
	if m.hasIndex {
		if c.NbrOff, err = heap.Uint64s(segNbrOff); err != nil {
			return nil, nil, fmt.Errorf("CSR offsets: %w", err)
		}
		if c.NbrDat, err = colstore.Int32s[int32](sec, segNbrDat); err != nil {
			return nil, nil, fmt.Errorf("CSR neighbours: %w", err)
		}
		if c.Entries, err = colstore.Int32s[int32](heap, segEntries); err != nil {
			return nil, nil, fmt.Errorf("index entry points: %w", err)
		}
	}

	e := &Engine{opts: m.opts, enc: enc}
	// The index adopts the matrix where it lies, mapping included, clipped
	// so that an AddPaper reallocates instead of writing through it.
	if e.index, err = pgindex.FromColumns(c); err != nil {
		return nil, nil, fmt.Errorf("columnar index: %w", err)
	}
	if m.hasIndex {
		e.stats.IndexEdges = e.index.NumEdges()
		e.stats.IndexMemory = e.index.MemoryBytes()
	}
	e.stats.VocabSize = vocab.Size()
	e.Embeddings = make(map[hetgraph.NodeID]vec.Vec32, len(c.IDs))
	e.viewRowsLocked()
	e.walSeq = m.lastSeq
	return e, m.updates, nil
}

// replayJournal attaches g and re-applies the journal to it only: the
// embeddings and index rows are in the columns already, so
// each replayed paper must land on a row the snapshot has. Nothing else
// can reach the engine yet, so no lock is taken.
func (e *Engine) replayJournal(g *hetgraph.Graph, updates []NewPaper) error {
	e.g = g
	for i, np := range updates {
		err := e.validateNewPaper(np)
		var id hetgraph.NodeID
		if err == nil {
			id, err = e.addToGraphLocked(np)
		}
		if err == nil && e.index.Embedding(id) == nil {
			err = fmt.Errorf("replayed paper %d has no row in the columnar matrix", id)
		}
		if err != nil {
			return fmt.Errorf("journalled update %d/%d: %w", i+1, len(updates), err)
		}
	}
	return nil
}

// SnapshotMapped reports whether this engine's embedding matrix and
// index adjacency are zero-copy views of an mmap'd snapshot file
// (false: heap-resident, either a fresh build or -mmap=off).
func (e *Engine) SnapshotMapped() bool { return e.colsec != nil }

// CloseSnapshot releases the mmap'd columnar section backing this
// engine, if any. The engine must not be used afterwards — its matrix
// and adjacency views become invalid. Intended for tests and orderly
// process teardown; leaving the mapping open for the process lifetime
// is also fine.
func (e *Engine) CloseSnapshot() error {
	if e.colsec == nil {
		return nil
	}
	sec := e.colsec
	e.colsec = nil
	return sec.Close()
}
