package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// The offline pipeline (§III) runs once; the online stage (§IV) serves
// queries. SaveSnapshot and LoadFileWith split the two across process
// lifetimes: SaveSnapshot writes the fine-tuned parameters Θ_B, the
// embeddings E, the PG-Index, the configuration, and the journal of
// online updates accepted since the build; LoadFileWith restores a
// query-ready engine against the same base graph by adopting those
// blocks as they are and re-applying the journalled updates to the graph.
//
// One format, container version 3, with one rule for what lives where:
// the gob payload holds scalars and strings (options, vocabulary, update
// journal, block shapes), and every fixed-width block is a segment of
// the page-aligned columnar section (internal/colstore) that follows it —
// the encoder table Θ_B, the float32 embedding matrix and the PG-Index CSR
// adjacency. Segments are looked up by name and gob skips fields the
// struct lacks, so the three int8 shadow segments and the traversal-mode
// header field that builds before PR 24 wrote are checksummed with the rest
// and otherwise ignored; the version did not change because those builds
// open a file without them too.
//
//	0                durable container header (magic, version, CRC-32C)
//	20               gob(snapshotPayload)   — includes Col metadata
//	20+len(payload)  colstore section       — page-aligned segments
//	                 ... and nothing after the section's final page
//
// The payoff is the load path: nothing is re-embedded or rebuilt, and
// when the file is mmap'd (LoadOptions.Mmap) the matrix and adjacency are
// zero-copy views of the page cache — the corpus never has to fit in RAM,
// pages fault in on demand and the kernel evicts them under pressure.
// Rankings are bit-identical either way: the bytes are the bytes.
//
// A truncated, bit-flipped, foreign or differently-versioned file is
// rejected with a typed error (durable.ErrTruncated, durable.ErrChecksum,
// durable.ErrBadMagic, *durable.VersionError) before a single payload
// byte is interpreted — never a cryptic mid-gob failure, and never a
// silently half-loaded engine. Versions 1 (all-gob) and 2 (Θ_B inside the
// gob payload as float64) are as unreadable as a future one and say so by
// type: rebuild from the graph.

// snapshotVersion is the container format version SaveSnapshot writes
// and the only one a load reads.
const snapshotVersion = 3

// Columnar segment names inside the section.
const (
	segTable   = "table"   // float32, vocabulary x Dim row-major encoder table Θ_B
	segEmbs    = "embs"    // float32, Rows x Dim row-major embedding matrix
	segIDs     = "ids"     // int32, paper node id of each row
	segNbrOff  = "nbroff"  // uint64, Rows+1 CSR offsets
	segNbrDat  = "nbrdat"  // int32, concatenated neighbour lists
	segEntries = "entries" // int32, PG-Index entry points
)

// enginePersist is the gob-encoded form of the engine's static state.
type enginePersist struct {
	// Options echoes the build configuration (function-typed and pointer
	// fields excluded). Older writers also echoed a Pooling field, always
	// mean; gob skips it on load.
	K                   int
	MetaPaths           []string
	SampleFraction      float64
	NegStrategy         uint8
	NegPerPos           int
	MaxPositivesPerSeed int
	Dim                 int
	EF                  int
	Seed                int64
	UsePGIndex          bool

	// Tokens is the vocabulary in id order; the fine-tuned table over it
	// is the segTable column.
	Tokens []string
	// DocFreqs and NumDocs restore the IDF weights.
	DocFreqs []int
	NumDocs  int
}

// colPersist is the gob-side metadata describing the columnar section:
// the shapes the segments must agree with, and the index scalars that
// are not worth a segment of their own.
type colPersist struct {
	Rows     int
	Dim      int
	HasIndex bool
	Nav      int32
}

// snapshotPayload is the complete gob payload inside the container: the
// static engine state plus the journal of online updates it has
// accepted, and the WAL sequence the journal reaches. Restoring the
// payload therefore reproduces the live state, and WAL replay only
// needs records past LastSeq.
type snapshotPayload struct {
	Engine  enginePersist
	Updates []NewPaper
	LastSeq uint64
	// Col describes the columnar section that follows the payload
	// (shapes and index scalars). Never nil in a snapshot SaveSnapshot
	// wrote: an engine always has embeddings.
	Col *colPersist
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
// a versioned, checksummed container, and returns the WAL sequence
// number the written snapshot covers: every update with sequence <=
// lastSeq is inside the snapshot, so WAL segments up to it can be
// truncated once the bytes are durably on disk. It holds the engine's
// read lock, so it can run while queries are served but not mid-update.
func (e *Engine) SaveSnapshot(w io.Writer) (lastSeq uint64, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	vocab := e.enc.Vocab()
	p := snapshotPayload{LastSeq: e.walSeq, Updates: e.updates}
	p.Engine = enginePersist{
		K:                   e.opts.K,
		SampleFraction:      e.opts.SampleFraction,
		NegStrategy:         uint8(e.opts.NegStrategy),
		NegPerPos:           e.opts.NegPerPos,
		MaxPositivesPerSeed: e.opts.MaxPositivesPerSeed,
		Dim:                 e.opts.Dim,
		EF:                  e.opts.EF,
		Seed:                e.opts.Seed,
		UsePGIndex:          boolOpt(e.opts.UsePGIndex, true),
		NumDocs:             vocab.NumDocs(),
	}
	for _, mp := range e.opts.MetaPaths {
		p.Engine.MetaPaths = append(p.Engine.MetaPaths, mp.String())
	}
	p.Engine.Tokens = make([]string, vocab.Size())
	p.Engine.DocFreqs = make([]int, vocab.Size())
	for id := range p.Engine.Tokens {
		p.Engine.Tokens[id] = vocab.Token(textenc.TokenID(id))
		p.Engine.DocFreqs[id] = vocab.DocFreq(textenc.TokenID(id))
	}
	var segs []colstore.SegmentData
	segs, p.Col = e.columnSegmentsLocked()

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&p); err != nil {
		return 0, fmt.Errorf("core: save: %w", err)
	}
	if err := durable.WriteContainer(w, snapshotVersion, payload.Bytes()); err != nil {
		return 0, fmt.Errorf("core: save: %w", err)
	}
	base := int64(durable.ContainerHeaderSize) + int64(payload.Len())
	if _, _, err := colstore.WriteSection(w, base, segs); err != nil {
		return 0, fmt.Errorf("core: save: %w", err)
	}
	return e.walSeq, nil
}

// columnSegmentsLocked decomposes the engine's fixed-width state into
// columnar segments, with the shapes that describe them. Caller holds
// e.mu (read). The returned slices view live engine storage — they are
// only valid until the lock is released, which is exactly long enough to
// write them out.
func (e *Engine) columnSegmentsLocked() ([]colstore.SegmentData, *colPersist) {
	c := e.index.Columns()
	segs := []colstore.SegmentData{
		colstore.F32Seg(segTable, e.enc.Emb.Data),
		colstore.F32Seg(segEmbs, c.Embs),
		colstore.I32Seg(segIDs, idsToInt32(c.IDs)),
	}
	col := &colPersist{Rows: len(c.IDs), Dim: c.Dim, HasIndex: e.index.HasGraph(), Nav: c.Nav}
	if col.HasIndex {
		segs = append(segs,
			colstore.U64Seg(segNbrOff, c.NbrOff),
			colstore.I32Seg(segNbrDat, c.NbrDat),
			colstore.I32Seg(segEntries, c.Entries))
	}
	return segs, col
}

func idsToInt32(ids []hetgraph.NodeID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

// LoadFileWith restores an engine from a snapshot file SaveSnapshot
// wrote: it verifies the container (magic, version, checksum) and the
// columnar section, decodes the payload, adopts the saved encoder table,
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
// graph: container, every CRC, the file's end, and the content the
// segments must agree on (shapes, ascending row ids, adjacency). A
// replication follower runs it on a downloaded snapshot before letting it
// replace anything, so a torn or forged download fails here, typed.
func verifySnapshotFile(path string) error {
	f, size, err := openSized(path)
	if err != nil {
		return err
	}
	defer f.Close()
	payload, sec, err := openSnapshot(f, path, size, colstore.ModeOff)
	if err != nil {
		return err
	}
	defer sec.Close()
	_, _, err = engineFromColumns(payload, path, sec)
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
// entry point they came through: the container at the head of src (magic,
// payload CRC, and the one format version this build reads — an older
// file is as unreadable as a newer one, and says so by type), then the
// columnar section behind it with its directory and every segment CRC,
// then the end of the source, which must be the section's final page
// boundary — readable bytes past it mean a concatenated or doubly-written
// file, never a legitimate one. src is the whole snapshot, size bytes
// long; when it is a file, mode decides whether the returned section maps
// it (a stream's bytes can only be read onto the heap).
func openSnapshot(src io.ReaderAt, name string, size int64, mode colstore.Mode) (payload []byte, sec *colstore.Section, err error) {
	version, payload, end, err := durable.ReadContainerPrefix(io.NewSectionReader(src, 0, size), name, snapshotVersion)
	if err != nil {
		return nil, nil, err
	}
	if version != snapshotVersion {
		return nil, nil, &durable.VersionError{Path: name, Got: version, Max: snapshotVersion}
	}
	if f, ok := src.(*os.File); ok {
		sec, err = colstore.Open(f, end, mode)
	} else {
		sec, err = colstore.OpenReaderAt(src, name, size, end)
	}
	if err != nil {
		return nil, nil, err
	}
	if aligned := colstore.AlignUp(sec.End()); size != aligned {
		sec.Close()
		return nil, nil, &durable.CorruptError{Path: name, Offset: aligned,
			Detail: "trailing bytes after snapshot", Err: durable.ErrChecksum}
	}
	return payload, sec, nil
}

// loadSnapshot opens a snapshot, assembles the engine it describes,
// recording into reg, and re-applies its journal to g.
func loadSnapshot(src io.ReaderAt, name string, size int64, mode colstore.Mode, g *hetgraph.Graph, reg *obs.Registry) (*Engine, error) {
	payload, sec, err := openSnapshot(src, name, size, mode)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	e, updates, err := engineFromColumns(payload, name, sec)
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

// contentError types an error found after every checksum held: what is
// wrong is the snapshot's content, so it is a *durable.CorruptError.
func contentError(name string, err error) error {
	var ce *durable.CorruptError
	if err == nil || errors.As(err, &ce) {
		return err
	}
	return &durable.CorruptError{Path: name, Detail: "snapshot content", Err: err}
}

// decodePayload gob-decodes a snapshot payload.
func decodePayload(payload []byte, name string) (*snapshotPayload, error) {
	var p snapshotPayload
	// gob reads a bytes.Reader byte by byte, so what is left of it says
	// how far into the payload parsing got.
	rd := bytes.NewReader(payload)
	if err := gob.NewDecoder(rd).Decode(&p); err != nil {
		// The payload passed its checksum, so a gob failure means the
		// snapshot was written by an incompatible build — report it with
		// position context instead of a bare "gob: ..." message.
		return nil, &durable.CorruptError{Path: name, Offset: int64(len(payload) - rd.Len()),
			Detail: "engine gob payload", Err: err}
	}
	if p.Col == nil {
		return nil, errors.New("snapshot describes no columnar section")
	}
	return &p, nil
}

// optionsFromPersist reconstructs the build Options a payload echoes.
func optionsFromPersist(ep *enginePersist) (Options, error) {
	opts := Options{
		K:                   ep.K,
		SampleFraction:      ep.SampleFraction,
		NegStrategy:         sampling.Strategy(ep.NegStrategy),
		NegPerPos:           ep.NegPerPos,
		MaxPositivesPerSeed: ep.MaxPositivesPerSeed,
		Dim:                 ep.Dim,
		EF:                  ep.EF,
		Seed:                ep.Seed,
		UsePGIndex:          Bool(ep.UsePGIndex),
	}
	for _, s := range ep.MetaPaths {
		mp, err := hetgraph.ParseMetaPath(s)
		if err != nil {
			return Options{}, err
		}
		opts.MetaPaths = append(opts.MetaPaths, mp)
	}
	return opts, nil
}

// engineFromColumns assembles an engine without its graph from the
// CRC-verified payload (name labels its source) and columnar section, and
// returns the payload's journal. The encoder table, matrix and adjacency
// are adopted as-is (the latter two zero-copy when sec is mapped). An
// error is a *durable.CorruptError or a plain one for contentError.
func engineFromColumns(payload []byte, name string, sec *colstore.Section) (*Engine, []NewPaper, error) {
	p, err := decodePayload(payload, name)
	if err != nil {
		return nil, nil, err
	}
	col := p.Col
	if col.Rows < 0 || p.Engine.Dim <= 0 || col.Dim != p.Engine.Dim {
		return nil, nil, fmt.Errorf("columnar shape: %d rows x %d dims vs engine dim %d",
			col.Rows, col.Dim, p.Engine.Dim)
	}
	opts, err := optionsFromPersist(&p.Engine)
	if err != nil {
		return nil, nil, err
	}

	// Residency discipline: the assembly below walks the small metadata
	// columns (row ids, CSR offsets, entry points) in full,
	// so zero-copy views of them would fault their pages resident during
	// load for no benefit — read those through the file onto the heap.
	// The encoder table goes there too: every query token touches it, and
	// it stays writable (fine-tuning and tests write to Emb).
	// The blocks that actually pay off lazily — the embedding matrix and
	// the concatenated neighbour lists — stay views of the mapping and page
	// in on first query touch.
	meta := sec.Materialized()
	table, err := meta.Float32s(segTable)
	if err != nil {
		return nil, nil, fmt.Errorf("encoder table: %w", err)
	}
	vocab, err := textenc.NewVocabFromTokens(p.Engine.Tokens, p.Engine.DocFreqs, p.Engine.NumDocs)
	if err != nil {
		return nil, nil, err
	}
	// The shape check (vocabulary x Dim against the segment's length,
	// overflow included) is the constructor's: shapes come from a file.
	enc, err := textenc.NewEncoderWithTable(vocab, p.Engine.Dim, table)
	if err != nil {
		return nil, nil, err
	}

	c := pgindex.Columns{Dim: col.Dim, Nav: col.Nav}
	if c.Embs, err = sec.Float32s(segEmbs); err != nil {
		return nil, nil, fmt.Errorf("embedding matrix: %w", err)
	}
	ids32, err := meta.Int32s(segIDs)
	if err != nil {
		return nil, nil, fmt.Errorf("row ids: %w", err)
	}
	if len(ids32) != col.Rows {
		return nil, nil, fmt.Errorf("columnar shape: %d ids for %d rows", len(ids32), col.Rows)
	}
	c.IDs = make([]hetgraph.NodeID, len(ids32))
	for i, id := range ids32 {
		c.IDs[i] = hetgraph.NodeID(id)
	}
	if col.HasIndex {
		if c.NbrOff, err = meta.Uint64s(segNbrOff); err != nil {
			return nil, nil, fmt.Errorf("CSR offsets: %w", err)
		}
		if c.NbrDat, err = sec.Int32s(segNbrDat); err != nil {
			return nil, nil, fmt.Errorf("CSR neighbours: %w", err)
		}
		if c.Entries, err = meta.Int32s(segEntries); err != nil {
			return nil, nil, fmt.Errorf("index entry points: %w", err)
		}
	}

	e := &Engine{opts: opts, enc: enc}
	// The index adopts the matrix where it lies, mapping included, clipped
	// so that an AddPaper reallocates instead of writing through it.
	if e.index, err = pgindex.FromColumns(c); err != nil {
		return nil, nil, fmt.Errorf("columnar index: %w", err)
	}
	if col.HasIndex {
		e.stats.IndexEdges = e.index.NumEdges()
		e.stats.IndexMemory = e.index.MemoryBytes()
	}
	e.stats.VocabSize = vocab.Size()
	e.Embeddings = make(map[hetgraph.NodeID]vec.Vec32, col.Rows)
	e.viewRowsLocked()
	e.walSeq = p.LastSeq
	return e, p.Updates, nil
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
