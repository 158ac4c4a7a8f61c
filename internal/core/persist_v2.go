package core

import (
	"fmt"
	"io"
	"os"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/train"
	"expertfind/internal/vec"
)

// The snapshot container (format version 2) splits the engine into two
// parts: the gob payload keeps the small state (encoder table, options,
// update journal), and a page-aligned columnar section (internal/
// colstore) carries the big fixed-width blocks — the float32 embedding
// matrix, the PG-Index CSR adjacency, and the int8 quantization shadow.
//
// The payoff is the load path: nothing is re-embedded or rebuilt, the
// saved blocks are adopted directly, and when the file is mmap'd
// (LoadOptions.Mmap) the matrix and adjacency are zero-copy views of
// the page cache — the corpus never has to fit in RAM, pages fault in
// on demand and the kernel evicts them under pressure. Rankings are
// bit-identical either way: the bytes are the bytes.
//
// File layout:
//
//	0                durable container header (version 2)
//	20               gob(snapshotPayload)   — includes Col metadata
//	20+len(payload)  colstore section       — page-aligned segments
//
// Version 1 (all-gob, re-embed and rebuild on load) was last written
// before the columnar store existed; its reader is gone and such a file
// is refused with a typed *durable.VersionError, as a future version is.

// snapshotVersion is the container format version Save writes and Load
// reads.
const snapshotVersion = 2

// Columnar segment names inside the v2 section.
const (
	segEmbs    = "embs"    // float32, Rows x Dim row-major embedding matrix
	segIDs     = "ids"     // int32, paper node id of each row
	segNbrOff  = "nbroff"  // uint64, Rows+1 CSR offsets
	segNbrDat  = "nbrdat"  // int32, concatenated neighbour lists
	segEntries = "entries" // int32, PG-Index entry points
	segDead    = "dead"    // uint8, tombstone flags (present iff NumDead > 0)
	segQCodes  = "qcodes"  // int8, quantized codes (present iff quantized)
	segQScales = "qscales" // float32, per-row quantization scales
	segQNorms  = "qnorms"  // float32, per-row exact squared norms
)

// colPersist is the gob-side metadata describing the columnar section:
// the shapes the segments must agree with, and the index scalars that
// are not worth a segment of their own.
type colPersist struct {
	Rows      int
	Dim       int
	HasIndex  bool
	ExactOnly bool
	Nav       int32
	NumDead   int
}

// LoadOptions configures how LoadFileWith materialises a snapshot.
type LoadOptions struct {
	// Mmap selects how the columnar section is accessed: ModeAuto (zero
	// value) maps it when the platform supports mmap and falls back to
	// heap reads otherwise, ModeOn requires the mapping, ModeOff forces
	// heap reads.
	Mmap colstore.Mode
}

// columnSegmentsLocked decomposes the engine's large state into
// columnar segments. Caller holds e.mu (read). The returned slices
// view live engine storage — they are only valid until the lock is
// released, which is exactly long enough to write them out.
func (e *Engine) columnSegmentsLocked() ([]colstore.SegmentData, *colPersist, error) {
	if e.index != nil {
		c := e.index.Columns()
		col := &colPersist{
			Rows:      len(c.IDs),
			Dim:       c.Dim,
			HasIndex:  true,
			ExactOnly: c.ExactOnly,
			Nav:       c.Nav,
			NumDead:   c.NumDead,
		}
		segs := []colstore.SegmentData{
			colstore.F32Seg(segEmbs, c.Embs),
			colstore.I32Seg(segIDs, idsToInt32(c.IDs)),
			colstore.U64Seg(segNbrOff, c.NbrOff),
			colstore.I32Seg(segNbrDat, c.NbrDat),
			colstore.I32Seg(segEntries, c.Entries),
		}
		if c.NumDead > 0 {
			segs = append(segs, colstore.U8Seg(segDead, c.Dead))
		}
		if len(c.QCodes) > 0 {
			segs = append(segs,
				colstore.I8Seg(segQCodes, c.QCodes),
				colstore.F32Seg(segQScales, c.QScales),
				colstore.F32Seg(segQNorms, c.QNorms))
		}
		return segs, col, nil
	}

	// No index (UsePGIndex=false): the flat rows already are the two
	// columns, in the ascending id order the format wants, so exact
	// engines get the same rebuild-free, mmap-able load path.
	col := &colPersist{Rows: len(e.ids), Dim: e.rows.Cols}
	segs := []colstore.SegmentData{
		colstore.F32Seg(segEmbs, e.rows.Data),
		colstore.I32Seg(segIDs, idsToInt32(e.ids)),
	}
	return segs, col, nil
}

// LoadFileWith is LoadFile with explicit materialisation options: o.Mmap
// decides whether the snapshot's columnar section is mmap'd (zero-copy
// views, corpus larger than RAM) or read onto the heap. The two modes
// produce bit-identical engines; only residency behaviour differs.
func LoadFileWith(path string, g *hetgraph.Graph, o LoadOptions) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// The file handle is only needed during the load: a mapping
	// survives Close, and heap mode materialises every segment before
	// engineFromColumns returns.
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	payload, end, err := readSnapshotPrefix(f, path)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	p, err := decodePayload(payload, path)
	if err != nil {
		return nil, err
	}
	sec, err := colstore.Open(f, end, o.Mmap)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if aligned := colstore.AlignUp(sec.End()); fi.Size() > aligned {
		sec.Close()
		return nil, trailingErr(path, aligned)
	}
	e, err := engineFromColumns(p, sec, path, g)
	if err != nil {
		sec.Close()
		return nil, err
	}
	e.colsec = sec
	return e, nil
}

// engineFromColumns assembles an engine from the decoded payload plus
// an opened, CRC-verified columnar section. Nothing
// is recomputed: the embedding matrix and the index adjacency are
// adopted as-is (zero-copy when sec is mapped), and the journalled
// updates are replayed against the graph only, because their embeddings
// and index entries are already inside the saved blocks.
func engineFromColumns(p *snapshotPayload, sec *colstore.Section, name string, g *hetgraph.Graph) (*Engine, error) {
	col := p.Col
	corrupt := func(detail string, err error) error {
		return fmt.Errorf("core: load: %w", &durable.CorruptError{
			Path: name, Offset: 0, Detail: detail, Err: err})
	}
	if col.Rows < 0 || col.Dim != p.Engine.Dim {
		return nil, corrupt("columnar shape",
			fmt.Errorf("%d rows x %d dims vs engine dim %d", col.Rows, col.Dim, p.Engine.Dim))
	}

	opts, err := optionsFromPersist(&p.Engine)
	if err != nil {
		return nil, err
	}
	enc, err := restoreEncoder(&p.Engine)
	if err != nil {
		return nil, err
	}

	// Residency discipline: the assembly below walks the small metadata
	// columns (row ids, CSR offsets, entry points, tombstones) in full,
	// so zero-copy views of them would fault their pages resident during
	// load for no benefit — read those through the file onto the heap.
	// The blocks that actually pay off lazily — the embedding matrix,
	// the concatenated neighbour lists, and the quantization shadow —
	// stay views of the mapping and page in on first query touch.
	meta := sec.Materialized()
	embs, err := sec.Float32s(segEmbs)
	if err != nil {
		return nil, corrupt("embedding matrix", err)
	}
	ids32, err := meta.Int32s(segIDs)
	if err != nil {
		return nil, corrupt("row ids", err)
	}
	if len(ids32) != col.Rows || len(embs) != col.Rows*col.Dim {
		return nil, corrupt("columnar shape",
			fmt.Errorf("%d ids, %d weights for %d x %d", len(ids32), len(embs), col.Rows, col.Dim))
	}
	ids := int32ToIDs(ids32)

	e := &Engine{g: g, opts: opts, enc: enc, reg: obs.Default()}
	// The token cache is rebuilt lazily: journalled updates repopulate
	// their entries below, and new AddPapers write theirs. Eagerly
	// re-tokenising the whole corpus would defeat the point of the
	// rebuild-free load.
	e.cache = make(train.TokenCache)
	e.stats.VocabSize = len(p.Engine.Tokens)

	var dead []byte
	if col.HasIndex {
		nbrOff, err := meta.Uint64s(segNbrOff)
		if err != nil {
			return nil, corrupt("CSR offsets", err)
		}
		nbrDat, err := sec.Int32s(segNbrDat)
		if err != nil {
			return nil, corrupt("CSR neighbours", err)
		}
		entries, err := meta.Int32s(segEntries)
		if err != nil {
			return nil, corrupt("index entry points", err)
		}
		if col.NumDead > 0 {
			if dead, err = meta.Bytes(segDead); err != nil {
				return nil, corrupt("tombstones", err)
			}
		}
		c := pgindex.Columns{
			IDs: ids, Dim: col.Dim, Embs: embs,
			ExactOnly: col.ExactOnly,
			NbrOff:    nbrOff, NbrDat: nbrDat,
			Nav: col.Nav, Entries: entries,
			Dead: dead, NumDead: col.NumDead,
		}
		if sec.Has(segQCodes) {
			if c.QCodes, err = sec.Int8s(segQCodes); err != nil {
				return nil, corrupt("quantized codes", err)
			}
			if c.QScales, err = sec.Float32s(segQScales); err != nil {
				return nil, corrupt("quantization scales", err)
			}
			if c.QNorms, err = sec.Float32s(segQNorms); err != nil {
				return nil, corrupt("quantization norms", err)
			}
		}
		idx, err := pgindex.FromColumns(c)
		if err != nil {
			return nil, corrupt("columnar index", err)
		}
		e.index = idx
		e.stats.IndexEdges = idx.NumEdges()
		e.stats.IndexMemory = idx.MemoryBytes()
	}

	// An engine without an index scans the saved matrix where it lies —
	// in the mapping, when there is one. Capacity is clipped to length so
	// AddPaper's append reallocates instead of writing through it.
	if !col.HasIndex {
		e.ids = ids
		e.rows = &vec.Matrix32{Rows: col.Rows, Cols: col.Dim, Data: embs[:len(embs):len(embs)]}
	}

	// The Embeddings map holds full-capacity row views of the shared
	// matrix: cap == len, so anything that appends to a row reallocates
	// onto the heap instead of writing through a read-only mapping.
	e.Embeddings = make(map[hetgraph.NodeID]vec.Vec32, col.Rows)
	for i, id := range ids {
		if len(dead) > 0 && dead[i] != 0 {
			continue
		}
		lo, hi := i*col.Dim, (i+1)*col.Dim
		e.Embeddings[id] = embs[lo:hi:hi]
	}

	// Re-apply journalled updates to the graph and token cache only:
	// their embeddings and index rows are already in the columnar
	// blocks. Each replayed paper must land on a row id the snapshot
	// knows — a mismatch means the snapshot and journal disagree.
	for i, u := range p.Updates {
		np := u.toNewPaper()
		e.mu.Lock()
		err := func() error {
			if verr := e.validateNewPaper(np); verr != nil {
				return verr
			}
			id, aerr := e.applyUpdateGraphOnly(np)
			if aerr != nil {
				return aerr
			}
			if _, ok := e.Embeddings[id]; !ok {
				return fmt.Errorf("replayed paper %d has no row in the columnar matrix", id)
			}
			return nil
		}()
		e.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: load: %w", &durable.CorruptError{
				Path: name, Offset: 0,
				Detail: fmt.Sprintf("journalled update %d/%d", i+1, len(p.Updates)),
				Err:    err})
		}
	}
	e.mu.Lock()
	e.walSeq = p.LastSeq
	e.mu.Unlock()
	return e, nil
}

// applyUpdateGraphOnly is applyUpdateLocked for the snapshot replay: the
// graph mutation, token cache entry, journal append and update counter
// — but no embedding or index insert, because the saved columnar
// blocks already contain the update's row. Caller holds e.mu for
// writing and has validated p.
func (e *Engine) applyUpdateGraphOnly(p NewPaper) (hetgraph.NodeID, error) {
	g := e.g
	defer e.InvalidateQueryCache()
	id := g.AddNode(hetgraph.Paper, p.Text)
	for _, a := range p.Authors {
		if err := g.AddEdge(a, id, hetgraph.Write); err != nil {
			return 0, err
		}
	}
	for _, v := range p.Venues {
		if err := g.AddEdge(id, v, hetgraph.Publish); err != nil {
			return 0, err
		}
	}
	for _, t := range p.Topics {
		if err := g.AddEdge(id, t, hetgraph.Mention); err != nil {
			return 0, err
		}
	}
	for _, c := range p.Cites {
		if err := g.AddEdge(id, c, hetgraph.Cite); err != nil {
			return 0, err
		}
	}
	e.cache[id] = e.enc.Tokenizer().Tokenize(p.Text)
	e.updates = append(e.updates, p)
	e.reg.Counter("expertfind_updates_total", "Online papers added to a built engine.").Inc()
	return id, nil
}

// SnapshotMapped reports whether this engine's embedding matrix and
// index adjacency are zero-copy views of an mmap'd snapshot file
// (false: heap-resident, either a fresh build or -mmap=off).
func (e *Engine) SnapshotMapped() bool {
	return e.colsec != nil && e.colsec.Mapped
}

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

// VerifySnapshotFile checks a snapshot file's integrity without
// materialising an engine: container magic, version, payload CRC, and
// the columnar section directory and every segment CRC.
// This is what a replication follower runs on a freshly downloaded
// snapshot before letting it replace anything: a torn or bit-flipped
// download fails here, with a typed error, not at some later boot.
func VerifySnapshotFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	_, end, err := readSnapshotPrefix(f, path)
	if err != nil {
		return err
	}
	secEnd, err := colstore.VerifySection(f, path, fi.Size(), end)
	if err != nil {
		return err
	}
	if fi.Size() != colstore.AlignUp(secEnd) {
		return trailingErr(path, colstore.AlignUp(secEnd))
	}
	return nil
}

// trailingErr reports readable bytes past where a snapshot should end —
// a concatenated or doubly-written file, never legitimate.
func trailingErr(name string, at int64) error {
	return fmt.Errorf("core: load: %w", &durable.CorruptError{
		Path: name, Offset: at,
		Detail: "trailing bytes after snapshot", Err: durable.ErrChecksum})
}

// offsetReaderAt serves a byte slice as an io.ReaderAt whose offsets
// start at base instead of zero — the tail of a streamed snapshot,
// addressed with the absolute file offsets the section directory uses.
type offsetReaderAt struct {
	base int64
	data []byte
}

func (o *offsetReaderAt) ReadAt(p []byte, off int64) (int, error) {
	off -= o.base
	if off < 0 || off > int64(len(o.data)) {
		return 0, io.EOF
	}
	n := copy(p, o.data[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}
