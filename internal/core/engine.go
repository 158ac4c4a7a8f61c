// Package core assembles the paper's complete system: the offline
// (k,P)-core based document-embedding pipeline (§III) and the online
// PG-Index retrieval + top-n expert ranking (§IV), behind one build/query
// API. The offline stages and the index can be ablated through Options,
// which is how the experiment harness produces the "w/o PG-Index" variants
// of Figure 7 and the "w/o (k,P)-core" row of Table IV.
//
// A Store is an engine's durable home — a snapshot and a write-ahead log
// — and the one durable node: it leads, logging its engine's writes for
// followers to tail, or (StoreOptions.Leader) follows a leader, replaying
// that leader's log into an engine that refuses writes until Promote.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"expertfind/internal/colstore"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/sampling"
	"expertfind/internal/ta"
	"expertfind/internal/textenc"
	"expertfind/internal/train"
	"expertfind/internal/vec"
)

// Options configures an Engine build. Zero values select the paper's
// defaults (§VI-A): k=4, P-A-P ∩ P-T-P, f=0.3, near-negative 1:3, 4
// epochs. Φ_P is always IDF-weighted mean pooling and the margin always 1.
type Options struct {
	// K is the (k,P)-core cohesiveness threshold.
	K int
	// MetaPaths are the relationships used simultaneously (§V).
	MetaPaths []hetgraph.MetaPath
	// SampleFraction is the seed ratio f of §III-B.
	SampleFraction float64
	// NegStrategy and NegPerPos configure negative collection.
	NegStrategy sampling.Strategy
	NegPerPos   int
	// MaxPositivesPerSeed bounds positives drawn from one community
	// (default 64; 0 keeps the default, -1 removes the bound). Topic-wide
	// P-T-P communities would otherwise dominate the training set.
	MaxPositivesPerSeed int
	// FastSampling draws near negatives from each community's boundary
	// instead of Algorithm 1's whole delete queue
	// (sampling.Config.UseCoreIndex). It makes nothing faster: every build
	// answers its communities from a kpcore.CoreIndex. The field survives
	// because the frozen bench/ sets it on four workloads (ROADMAP 1(a)).
	FastSampling bool
	// Dim is the embedding dimensionality d.
	Dim int
	// Train carries the fine-tune's schedule. With the graph and
	// Seed they fix every bit of the fine-tuned table: the gradient sums
	// are grouped by a constant grid, not by the machine's core count.
	Train train.Config
	// EF is the search-pool size for PG-Index retrieval (0: 2m).
	EF int
	// UseKPCore gates the structural fine-tuning; false freezes the
	// pre-trained encoder (the "w/o (k,P)-core" ablation).
	UseKPCore *bool
	// UsePGIndex gates approximate retrieval; false scans all embeddings
	// (Ours-3/Ours-4).
	UsePGIndex *bool
	// Seed drives sampling, shuffling and index construction.
	Seed int64
	// VocabConfig tunes vocabulary induction.
	Vocab textenc.VocabConfig
	// Metrics receives build-phase spans and online query counters; nil
	// selects the process-wide obs.Default() registry.
	Metrics *obs.Registry
}

func boolOpt(p *bool, def bool) bool {
	if p == nil {
		return def
	}
	return *p
}

// Bool is a convenience for setting the Use* option pointers.
func Bool(b bool) *bool { return &b }

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if len(o.MetaPaths) == 0 {
		o.MetaPaths = []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}
	}
	if o.SampleFraction <= 0 {
		o.SampleFraction = 0.3
	}
	if o.NegPerPos <= 0 {
		o.NegPerPos = 3
	}
	if o.MaxPositivesPerSeed == 0 {
		o.MaxPositivesPerSeed = 64
	}
	if o.MaxPositivesPerSeed < 0 {
		o.MaxPositivesPerSeed = 0 // sampling.Config: 0 means unbounded
	}
	if o.Dim <= 0 {
		o.Dim = 64
	}
	return o
}

// BuildStats reports the offline pipeline's work, phase by phase.
type BuildStats struct {
	VocabSize     int
	Sampling      *sampling.Report
	Training      *train.Result
	CommunityTime time.Duration // (k,P)-core search + sampling
	TrainTime     time.Duration
	EmbedTime     time.Duration
	IndexTime     time.Duration
	IndexEdges    int
	IndexMemory   int64
	TotalTime     time.Duration
}

// Engine is a built expert-finding system: fine-tuned embeddings E, the
// PG-Index over them, and the expert ranker.
//
// Queries and online updates may run concurrently: query paths hold mu
// for reading, AddPaper holds it for writing. The optional query cache
// (EnableQueryCache) memoises answers and is invalidated by every update,
// so a cached ranking never outlives the graph state it was computed on.
type Engine struct {
	g    *hetgraph.Graph
	opts Options
	enc  *textenc.Encoder
	// Embeddings is E, the representation of every paper, as views of
	// the index's rows (viewRowsLocked). Read-only outside the engine,
	// which mutates it under mu; a vector is never written to.
	//
	// Deprecated: read E through Rows. The map is kept for bench/, which
	// cannot change with the engine; ROADMAP item 1(a) deletes it.
	Embeddings map[hetgraph.NodeID]vec.Vec32
	// index holds E once, ids ascending; it has a proximity graph exactly
	// when Options.UsePGIndex is on.
	index *pgindex.Index
	stats BuildStats
	reg   *obs.Registry
	m     engineMetrics

	// mu serialises online updates against queries.
	mu sync.RWMutex
	// qcache is the optional query cache; nil when disabled.
	qcache *queryCache

	// wal, when attached, records every accepted update before it is
	// applied (see SetUpdateLog); nil runs memory-only.
	wal UpdateLog
	// following makes AddPaper refuse every write with ErrReadOnly: the
	// engine is a following store's, whose updates come from its
	// leader's log until SetUpdateLog attaches a log of its own.
	following bool
	// updates journals every accepted online update since the offline
	// build, in order — SaveSnapshot embeds it so snapshots capture live
	// state.
	updates []NewPaper
	// walSeq is the WAL sequence of the most recent applied update.
	walSeq uint64

	// colsec is the mapped columnar snapshot section backing an engine
	// loaded from a file (nil for a built or heap-loaded one). It anchors
	// the mmap'd views the embedding matrix and index adjacency alias; see
	// CloseSnapshot.
	colsec *colstore.Section
}

// engineMetrics are the handles an engine records its online and
// fine-tuning work through, created with the engine, built or loaded, so
// every family it feeds is listed before its first event.
type engineMetrics struct {
	queries, abandoned, updates *obs.Counter
	latency                     *obs.Histogram
	search                      *pgindex.Metrics
	rank                        *ta.Metrics
	train                       *train.Metrics
	cache                       *cacheMetrics
}

// useRegistry points the engine at reg (obs.Default() when nil) and
// creates its handles there.
func (e *Engine) useRegistry(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default()
	}
	e.reg = reg
	e.m = engineMetrics{
		queries:   reg.Counter("expertfind_queries_total", "Online queries answered."),
		abandoned: reg.Counter("expertfind_query_abandoned_total", "Queries abandoned because their context was cancelled or timed out."),
		updates:   reg.Counter("expertfind_updates_total", "Online papers added to a built engine."),
		latency:   reg.Histogram("expertfind_query_seconds", "End-to-end online query latency.", nil),
		search:    pgindex.NewMetrics(reg),
		rank:      ta.NewMetrics(reg),
		train:     train.NewMetrics(reg),
		cache: &cacheMetrics{
			hits:          reg.Counter("expertfind_qcache_hits_total", "Query-cache lookups answered from the cache."),
			misses:        reg.Counter("expertfind_qcache_misses_total", "Query-cache lookups that fell through to a full query."),
			evictions:     reg.Counter("expertfind_qcache_evictions_total", "Query-cache entries evicted by the LRU size bound."),
			invalidations: reg.Counter("expertfind_qcache_invalidations_total", "Whole-cache invalidations triggered by graph updates."),
			entries:       reg.Gauge("expertfind_qcache_entries", "Query-cache entries currently resident."),
		},
	}
}

// Build runs the offline pipeline over g: vocabulary induction,
// pre-trained encoding, (k,P)-core community sampling, triplet fine-tuning,
// embedding of all papers, and PG-Index construction. Each phase runs
// under an obs span, so its duration lands both in BuildStats and in the
// registry's expertfind_stage_seconds histogram (stage="build/...").
func Build(g *hetgraph.Graph, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if g.NumNodesOfType(hetgraph.Paper) == 0 {
		return nil, fmt.Errorf("core: graph has no papers")
	}
	if opts.K < 0 {
		return nil, fmt.Errorf("core: negative k %d", opts.K)
	}
	for _, mp := range opts.MetaPaths {
		if !mp.IsPaperPaper() || !mp.IsSymmetric() {
			return nil, fmt.Errorf("core: meta-path %s is not a symmetric paper-paper path, which a (k,P)-core needs", mp)
		}
	}
	e := &Engine{g: g, opts: opts}
	e.useRegistry(opts.Metrics)
	ctx, root := obs.StartSpan(obs.WithRegistry(context.Background(), e.reg), "build")

	var cache train.TokenCache
	e.enc, cache = readCorpus(ctx, g, opts)
	e.stats.VocabSize = e.enc.Vocab().Size()

	// Offline stage 1: (k,P)-core communities and training triples.
	var sp *obs.Span
	if boolOpt(opts.UseKPCore, true) {
		_, sp = obs.StartSpan(ctx, "sampling")
		rng := rand.New(rand.NewSource(opts.Seed))
		triples, rep := sampling.Generate(g, sampling.Config{
			Fraction:            opts.SampleFraction,
			K:                   opts.K,
			MetaPaths:           opts.MetaPaths,
			Strategy:            opts.NegStrategy,
			NegPerPos:           opts.NegPerPos,
			MaxPositivesPerSeed: opts.MaxPositivesPerSeed,
			UseCoreIndex:        opts.FastSampling,
		}, rng)
		e.stats.Sampling = rep
		e.stats.CommunityTime = sp.End()
		e.reg.Counter("expertfind_build_triples_sampled_total",
			"Training triples produced by (k,P)-core sampling.").Add(float64(len(triples)))

		// Offline stage 2: triplet-loss fine-tuning (Eq. 3).
		_, sp = obs.StartSpan(ctx, "training")
		e.stats.Training = train.FineTune(e.enc, cache, triples, opts.Train,
			rand.New(rand.NewSource(opts.Seed+1)))
		e.stats.TrainTime = sp.End()
		e.m.train.Record(e.stats.Training)
	}

	// Offline stage 3: embed all papers, build the PG-Index over them.
	_, sp = obs.StartSpan(ctx, "embedding")
	e.index = pgindex.FromRows(train.EmbedRows(e.enc, cache))
	e.Embeddings = make(map[hetgraph.NodeID]vec.Vec32, e.index.Len())
	e.viewRowsLocked()
	e.stats.EmbedTime = sp.End()
	e.reg.Counter("expertfind_build_papers_embedded_total",
		"Papers embedded by offline builds.").Add(float64(e.index.Len()))

	if boolOpt(opts.UsePGIndex, true) {
		_, sp = obs.StartSpan(ctx, "indexing")
		e.index.BuildGraph(pgindex.DefaultConfig(), rand.New(rand.NewSource(opts.Seed)))
		e.stats.IndexTime = sp.End()
		e.stats.IndexEdges = e.index.NumEdges()
		e.stats.IndexMemory = e.index.MemoryBytes()
	}
	e.stats.TotalTime = root.End()

	e.reg.Counter("expertfind_builds_total", "Offline engine builds completed.").Inc()
	e.reg.Gauge("expertfind_vocab_size", "Vocabulary size of the built encoder.").
		Set(float64(e.stats.VocabSize))
	e.reg.Gauge("expertfind_index_edges", "Directed proximity edges in the PG-Index.").
		Set(float64(e.stats.IndexEdges))
	e.reg.Gauge("expertfind_index_bytes", "Estimated resident size of the PG-Index.").
		Set(float64(e.stats.IndexMemory))
	return e, nil
}

// readCorpus runs the build's text stages, one span each: the vocabulary,
// the pre-trained encoder and the token cache. The papers' labels are
// read and tokenised once, by the vocabulary's scan, whose token lists
// feed the pre-training and the cache.
func readCorpus(ctx context.Context, g *hetgraph.Graph, opts Options) (*textenc.Encoder, train.TokenCache) {
	_, sp := obs.StartSpan(ctx, "vocab")
	papers := g.NodesOfType(hetgraph.Paper)
	corpus := make([]string, len(papers))
	for i, p := range papers {
		corpus[i] = g.Label(p)
	}
	vocab, docs := textenc.BuildVocabTokens(corpus, opts.Vocab)
	sp.End()
	_, sp = obs.StartSpan(ctx, "pretrain")
	enc := textenc.NewEncoder(vocab, opts.Dim, opts.Seed)
	textenc.PretrainTokens(enc, docs)
	sp.End()
	_, sp = obs.StartSpan(ctx, "tokencache")
	cache := train.NewTokenCache(papers, docs)
	sp.End()
	return enc, cache
}

// Stats returns the build statistics.
func (e *Engine) Stats() BuildStats { return e.stats }

// Metrics returns the registry the engine records into (never nil).
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Graph returns the underlying heterogeneous graph. Reading it is safe
// only while no update (AddPaper, WAL replay) can run: updates append
// nodes and edges under the engine's write lock. Code that reads the
// graph of a live engine goes through ReadGraph.
func (e *Engine) Graph() *hetgraph.Graph { return e.g }

// ReadGraph calls fn with the graph while holding the engine's read
// lock, so fn sees no half-applied update. fn must not call back into
// the engine's locking methods (queries, AddPaper, ReadGraph).
func (e *Engine) ReadGraph(fn func(g *hetgraph.Graph)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	fn(e.g)
}

// Encoder returns the (fine-tuned) document encoder.
func (e *Engine) Encoder() *textenc.Encoder { return e.enc }

// Index returns the PG-Index, or nil when disabled.
func (e *Engine) Index() *pgindex.Index {
	if !e.index.HasGraph() {
		return nil
	}
	return e.index
}

// QueryStats reports the online work of one query.
type QueryStats struct {
	EncodeTime   time.Duration
	RetrieveTime time.Duration
	RankTime     time.Duration
	Search       pgindex.SearchStats
	TA           ta.Stats
	UsedPGIndex  bool
	// CacheHit reports that the answer came from the query cache; the
	// remaining fields then describe the original fill, not this lookup.
	CacheHit bool
}

// Total returns the end-to-end response time of the query.
func (s QueryStats) Total() time.Duration { return s.EncodeTime + s.RetrieveTime + s.RankTime }

// startQuery opens the root span of one online request, derived from the
// caller's ctx so cancellation flows into the pipeline stages.
func (e *Engine) startQuery(ctx context.Context) (context.Context, *obs.Span) {
	return obs.StartSpan(obs.WithRegistry(ctx, e.reg), "query")
}

// finishQuery closes the root span and records the request: its latency,
// and the PG-Index search behind it when the engine has a graph to walk.
func (e *Engine) finishQuery(root *obs.Span, st QueryStats) {
	root.End()
	e.m.queries.Inc()
	e.m.latency.Observe(st.Total().Seconds())
	if st.UsedPGIndex {
		e.m.search.Record(st.Search)
	}
}

// abandonQuery closes the root span of a query that died on cancellation
// and bumps the abandonment counter.
func (e *Engine) abandonQuery(root *obs.Span) {
	root.End()
	e.m.abandoned.Inc()
}

// retrievePapersLocked is the span-instrumented retrieval stage shared by
// the public entry points; the caller holds e.mu for reading. The encode
// and retrieve spans populate QueryStats, so Total() is by construction
// the sum of the span durations.
func (e *Engine) retrievePapersLocked(ctx context.Context, query string, m int) ([]hetgraph.NodeID, QueryStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	_, sp := obs.StartSpan(ctx, "encode")
	qv := e.enc.Encode(query)
	encodeTime := sp.End()
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{EncodeTime: encodeTime}, err
	}
	res, st, err := e.retrieveVecLocked(ctx, qv, m)
	st.EncodeTime = encodeTime
	if err != nil {
		return nil, st, err
	}
	ids := make([]hetgraph.NodeID, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids, st, ctx.Err()
}

// retrieveVecLocked is the retrieve stage of every query, text or paper:
// the m rows nearest to qv — through the PG-Index when the engine has
// one, by the index's exact scan otherwise — under one "retrieve" span.
// The caller holds e.mu for reading.
func (e *Engine) retrieveVecLocked(ctx context.Context, qv vec.Vec32, m int) ([]pgindex.Result, QueryStats, error) {
	st := QueryStats{UsedPGIndex: e.index.HasGraph()}
	_, sp := obs.StartSpan(ctx, "retrieve")
	res, search, err := e.index.SearchCtx(ctx, qv, m, e.opts.EF)
	st.Search = search
	st.RetrieveTime = sp.End()
	return res, st, err
}

// Rows returns E as the index holds it: the paper ids ascending, and a
// matrix whose row i embeds ids[i]. Both are read-only and stay valid
// and unchanged after later updates: the ids are clipped to their length
// and the matrix is a fresh header over the rows present now, so an
// AddPaper that appends to, or moves, the index's storage leaves them be.
func (e *Engine) Rows() ([]hetgraph.NodeID, *vec.Matrix32) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ids, rows := e.index.Rows()
	n, d := len(ids), rows.Cols
	return ids[:n:n], &vec.Matrix32{Rows: n, Cols: d, Data: rows.Data[: n*d : n*d]}
}

// viewRowsLocked brings Embeddings up to date with the index: it views
// the rows appended since the last call, or every row when an append moved
// the matrix — views of the old array would keep it alive beside the new
// one. Caller holds e.mu for writing, or owns the engine outright.
func (e *Engine) viewRowsLocked() {
	ids, rows := e.index.Rows()
	from := len(e.Embeddings) // one entry per row viewed so far
	if from > 0 && &e.Embeddings[ids[0]][0] != &rows.Data[0] {
		from = 0
	}
	for i := from; i < len(ids); i++ {
		e.Embeddings[ids[i]] = rows.Row(i)
	}
}

// topExpertsLocked runs the full uncached pipeline under a read lock.
func (e *Engine) topExpertsLocked(ctx context.Context, query string, m, n int) ([]ta.Ranking, QueryStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sctx, root := e.startQuery(ctx)
	papers, st, err := e.retrievePapersLocked(sctx, query, m)
	if err != nil {
		e.abandonQuery(root)
		return nil, st, err
	}
	_, sp := obs.StartSpan(sctx, "rank")
	var experts []ta.Ranking
	experts, st.TA, err = ta.TopExpertsCtx(sctx, e.g, papers, n)
	st.RankTime = sp.End()
	if err != nil {
		e.abandonQuery(root)
		return nil, st, err
	}
	e.m.rank.Record(st.TA)
	e.finishQuery(root, st)
	return experts, st, nil
}

// Errors returned by the query entry points.
var (
	// ErrUnknownPaper reports an id with no indexed embedding.
	ErrUnknownPaper = errors.New("core: unknown paper id")
)

// BadParamError reports a query parameter outside its valid range, such
// as a non-positive m or n; callers can map it to a 400 with errors.As.
type BadParamError struct {
	Param string
	Value int
}

func (e *BadParamError) Error() string {
	return fmt.Sprintf("core: parameter %s must be positive, got %d", e.Param, e.Value)
}

// SimilarPapers returns the m papers nearest to an already-indexed paper,
// excluding the paper itself — the related-work lookup behind /similar.
// It is query retrieval with the paper's embedding for the query's: the
// PG-Index at the engine's configured EF, or the exact scan without one.
// ctx cancels the search cooperatively, as it does for TopExpertsCtx.
func (e *Engine) SimilarPapers(ctx context.Context, id hetgraph.NodeID, m int) ([]hetgraph.NodeID, QueryStats, error) {
	if m <= 0 {
		return nil, QueryStats{}, &BadParamError{Param: "m", Value: m}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	emb := e.index.Embedding(id)
	if emb == nil {
		return nil, QueryStats{}, ErrUnknownPaper
	}
	sctx, root := e.startQuery(ctx)
	// +1: the paper itself ranks first in its own neighbourhood.
	res, st, err := e.retrieveVecLocked(sctx, emb, m+1)
	if err != nil {
		e.abandonQuery(root)
		return nil, st, err
	}
	ids := make([]hetgraph.NodeID, 0, m)
	for _, r := range res {
		if r.ID == id {
			continue
		}
		ids = append(ids, r.ID)
		if len(ids) == m {
			break
		}
	}
	e.finishQuery(root, st)
	return ids, st, nil
}

// EncodeQuery exposes the query representation v_T: a shard encodes a
// routed query with it (cluster.ShardEngine), and bench/ checks its
// answers against an exact scan of it.
func (e *Engine) EncodeQuery(query string) vec.Vec32 { return e.enc.Encode(query) }
