package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/pgindex"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
)

// The offline pipeline (§III) runs once; the online stage (§IV) serves
// queries. Save and Load split the two across process lifetimes: Save
// writes the fine-tuned parameters Θ_B, the configuration, and the
// journal of online updates accepted since the build; Load restores a
// query-ready engine against the same base graph, re-deriving the
// embeddings E and the PG-Index deterministically from Θ_B and then
// re-applying the journalled updates (cheap next to training, and far
// smaller on disk).
//
// On disk an engine is a durable.Container: magic + format version +
// CRC-32C over a gob payload, written via atomic temp-file-plus-rename
// replacement. A truncated, bit-flipped, foreign or future-versioned
// file is rejected with a typed error (durable.ErrTruncated,
// durable.ErrChecksum, durable.ErrBadMagic, *durable.VersionError)
// before a single payload byte is interpreted — never a cryptic mid-gob
// failure, and never a silently half-loaded engine.

// The container format (version 2: the gob payload plus a columnar
// section) is described in persist_v2.go. It is the only one Save writes
// and the only one Load reads; a version-1 file (all-gob, written before
// the columnar store existed) is refused with a *durable.VersionError.

// enginePersist is the gob-encoded form of the engine's static state.
type enginePersist struct {
	// Options echoes the build configuration (function-typed and pointer
	// fields excluded).
	K                   int
	MetaPaths           []string
	SampleFraction      float64
	NegStrategy         uint8
	NegPerPos           int
	MaxPositivesPerSeed int
	Dim                 int
	Pooling             uint8
	EF                  int
	Seed                int64
	UsePGIndex          bool
	IndexConfig         pgindex.Config

	// Tokens is the vocabulary in id order; EmbData the fine-tuned table.
	Tokens  []string
	EmbData []float64
	// DocFreqs and NumDocs restore the IDF weights.
	DocFreqs []int
	NumDocs  int
}

// persistUpdate is the on-disk form of one accepted AddPaper, both in
// snapshot journals and in WAL records.
type persistUpdate struct {
	Text    string
	Authors []int32
	Venues  []int32
	Topics  []int32
	Cites   []int32
}

func toPersistUpdate(p NewPaper) persistUpdate {
	return persistUpdate{
		Text:    p.Text,
		Authors: idsToInt32(p.Authors),
		Venues:  idsToInt32(p.Venues),
		Topics:  idsToInt32(p.Topics),
		Cites:   idsToInt32(p.Cites),
	}
}

func (u persistUpdate) toNewPaper() NewPaper {
	return NewPaper{
		Text:    u.Text,
		Authors: int32ToIDs(u.Authors),
		Venues:  int32ToIDs(u.Venues),
		Topics:  int32ToIDs(u.Topics),
		Cites:   int32ToIDs(u.Cites),
	}
}

func idsToInt32(ids []hetgraph.NodeID) []int32 {
	if len(ids) == 0 {
		return nil
	}
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}

func int32ToIDs(ids []int32) []hetgraph.NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]hetgraph.NodeID, len(ids))
	for i, id := range ids {
		out[i] = hetgraph.NodeID(id)
	}
	return out
}

// snapshotPayload is the complete gob payload inside the container: the
// static engine state plus the journal of online updates it has
// accepted, and the WAL sequence the journal reaches. Restoring the
// payload therefore reproduces the live state, and WAL replay only
// needs records past LastSeq.
type snapshotPayload struct {
	Engine  enginePersist
	Updates []persistUpdate
	LastSeq uint64
	// Col describes the columnar section that follows the payload
	// (shapes and index scalars). Never nil in a snapshot Save wrote: an
	// engine always has embeddings.
	Col *colPersist
}

// Save serialises the engine — fine-tuned encoder, configuration, and
// the journal of accepted online updates — as a versioned, checksummed
// container. It holds the engine's read lock, so it can run while
// queries are served but not mid-update.
func (e *Engine) Save(w io.Writer) error {
	_, err := e.SaveSnapshot(w)
	return err
}

// SaveSnapshot is Save returning the WAL sequence number the written
// snapshot covers: every update with sequence <= lastSeq is inside the
// snapshot, so WAL segments up to it can be truncated once the bytes
// are durably on disk.
func (e *Engine) SaveSnapshot(w io.Writer) (lastSeq uint64, err error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	enc := e.enc
	vocab := enc.Vocab()
	p := snapshotPayload{LastSeq: e.walSeq}
	p.Engine = enginePersist{
		K:                   e.opts.K,
		SampleFraction:      e.opts.SampleFraction,
		NegStrategy:         uint8(e.opts.NegStrategy),
		NegPerPos:           e.opts.NegPerPos,
		MaxPositivesPerSeed: e.opts.MaxPositivesPerSeed,
		Dim:                 e.opts.Dim,
		Pooling:             uint8(e.enc.Pooling),
		EF:                  e.opts.EF,
		Seed:                e.opts.Seed,
		UsePGIndex:          boolOpt(e.opts.UsePGIndex, true),
		IndexConfig:         e.opts.Index,
		// The table is float32 in memory; persisting float64 keeps the
		// snapshot format stable and round-trips exactly (every float32
		// is representable as a float64).
		EmbData: enc.Emb.Float64(),
		NumDocs: vocab.NumDocs(),
	}
	for _, mp := range e.opts.MetaPaths {
		p.Engine.MetaPaths = append(p.Engine.MetaPaths, mp.String())
	}
	p.Engine.Tokens = make([]string, vocab.Size())
	p.Engine.DocFreqs = make([]int, vocab.Size())
	for id := 0; id < vocab.Size(); id++ {
		p.Engine.Tokens[id] = vocab.Token(textencTokenID(id))
		p.Engine.DocFreqs[id] = vocab.DocFreq(textencTokenID(id))
	}
	p.Updates = make([]persistUpdate, len(e.updates))
	for i, u := range e.updates {
		p.Updates[i] = toPersistUpdate(u)
	}

	// The big blocks — embedding matrix, CSR adjacency, quantization
	// shadow — go into the columnar section after the gob payload, in
	// page-aligned fixed-width segments a loader can mmap. Only their
	// shapes travel in the gob metadata.
	segs, col, err := e.columnSegmentsLocked()
	if err != nil {
		return 0, err
	}
	p.Col = col

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

// Load restores an engine saved with Save: it verifies the container
// (magic, version, checksum) and the columnar section, decodes the
// payload, adopts the saved embedding matrix and PG-Index as they are,
// and re-applies the journalled online updates to g. The graph must be
// the base graph the engine was built over (same node ids); Load cannot
// verify that beyond shape checks.
//
// Failure modes are typed: errors.Is(err, durable.ErrTruncated /
// ErrChecksum / ErrBadMagic) and errors.As(&durable.VersionError{},
// &durable.CorruptError{}) distinguish damage classes, and every decode
// error carries the byte offset where parsing stopped.
func Load(r io.Reader, g *hetgraph.Graph) (*Engine, error) {
	return loadNamed(r, "<stream>", g)
}

// LoadFile is Load with path context in every error, and — unlike the
// streaming Load — able to mmap a v2 snapshot's columnar section.
// It uses ModeAuto; LoadFileWith exposes the choice.
func LoadFile(path string, g *hetgraph.Graph) (*Engine, error) {
	return LoadFileWith(path, g, LoadOptions{})
}

func loadNamed(r io.Reader, name string, g *hetgraph.Graph) (*Engine, error) {
	payload, end, err := readSnapshotPrefix(r, name)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	p, err := decodePayload(payload, name)
	if err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	// Heap mode only — a stream has no file to map. The section
	// directory addresses segments by absolute file offset.
	ra := &offsetReaderAt{base: end, data: rest}
	sec, err := colstore.OpenReaderAt(ra, name, end+int64(len(rest)), end)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	return engineFromColumns(p, sec, name, g)
}

// readSnapshotPrefix reads and verifies the container at the head of a
// snapshot and insists on the one format version this build reads: an
// older file is as unreadable as a newer one, and says so by type.
func readSnapshotPrefix(r io.Reader, name string) (payload []byte, end int64, err error) {
	version, payload, end, err := durable.ReadContainerPrefix(r, name, snapshotVersion)
	if err != nil {
		return nil, 0, err
	}
	if version != snapshotVersion {
		return nil, 0, &durable.VersionError{Path: name, Got: version, Max: snapshotVersion}
	}
	return payload, end, nil
}

// decodePayload gob-decodes and shape-checks a snapshot payload.
func decodePayload(payload []byte, name string) (*snapshotPayload, error) {
	var p snapshotPayload
	cr := &countingReader{r: bytes.NewReader(payload)}
	if err := gob.NewDecoder(cr).Decode(&p); err != nil {
		// The payload passed its checksum, so a gob failure means the
		// snapshot was written by an incompatible build — report it with
		// position context instead of a bare "gob: ..." message.
		return nil, fmt.Errorf("core: load: %w", &durable.CorruptError{
			Path: name, Offset: cr.n, Detail: "engine gob payload", Err: err})
	}
	if p.Engine.Dim <= 0 || len(p.Engine.Tokens) == 0 ||
		len(p.Engine.EmbData) != len(p.Engine.Tokens)*p.Engine.Dim {
		return nil, fmt.Errorf("core: load: %w", &durable.CorruptError{
			Path: name, Offset: 0, Detail: "engine shape",
			Err: fmt.Errorf("dim %d, %d tokens, %d weights", p.Engine.Dim,
				len(p.Engine.Tokens), len(p.Engine.EmbData))})
	}
	if p.Col == nil {
		return nil, fmt.Errorf("core: load: %w", &durable.CorruptError{
			Path: name, Offset: 0, Detail: "columnar shape",
			Err: errors.New("snapshot describes no columnar section")})
	}
	return &p, nil
}

// optionsFromPersist reconstructs the build Options a payload echoes.
func optionsFromPersist(ep *enginePersist) (Options, error) {
	opts := Options{
		K:                   ep.K,
		SampleFraction:      ep.SampleFraction,
		NegPerPos:           ep.NegPerPos,
		MaxPositivesPerSeed: ep.MaxPositivesPerSeed,
		Dim:                 ep.Dim,
		EF:                  ep.EF,
		Seed:                ep.Seed,
		Index:               ep.IndexConfig,
		UsePGIndex:          Bool(ep.UsePGIndex),
	}
	opts.NegStrategy = samplingStrategy(ep.NegStrategy)
	for _, s := range ep.MetaPaths {
		mp, err := hetgraph.ParseMetaPath(s)
		if err != nil {
			return Options{}, fmt.Errorf("core: load: %w", err)
		}
		opts.MetaPaths = append(opts.MetaPaths, mp)
	}
	return opts, nil
}

// countingReader tracks bytes consumed so decode errors can report how
// far into the payload parsing got.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// textencTokenID converts a dense id to the tokenizer's id type; split out
// to keep the Save loop readable.
func textencTokenID(id int) textenc.TokenID { return textenc.TokenID(id) }

// samplingStrategy converts a persisted strategy byte back to the enum.
func samplingStrategy(b uint8) sampling.Strategy { return sampling.Strategy(b) }

// restoreEncoder rebuilds the fine-tuned encoder from its persisted form.
func restoreEncoder(p *enginePersist) (*textenc.Encoder, error) {
	vocab, err := textenc.NewVocabFromTokens(p.Tokens, p.DocFreqs, p.NumDocs)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	enc, err := textenc.NewEncoderWithTable(vocab, p.Dim, p.EmbData)
	if err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	enc.Pooling = textenc.Pooling(p.Pooling)
	return enc, nil
}
