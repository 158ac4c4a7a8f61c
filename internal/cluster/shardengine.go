package cluster

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"expertfind/internal/core"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/vec"
)

// ShardConfig configures one shard's serving state.
type ShardConfig struct {
	// ID and Of place this shard in the topology: it owns the papers p
	// with AssignShard(p, Of) == ID.
	ID, Of int
	// Index configures the per-shard PG-Index build (typically the same
	// config the engine was built with, seed included — determinism makes
	// every replica of this shard byte-identical).
	Index pgindex.Config
	// UsePGIndex gives the shard's index a proximity graph, for
	// approximate per-shard retrieval; false scans the owned embeddings
	// exactly (required by the equivalence tests: exact
	// per-shard top-m lists merge into exactly the single-node top-m).
	UsePGIndex bool
	// EF is the PG-Index search pool size (0: 2m).
	EF int
}

// ShardEngine restricts a full engine to one shard's owned papers. The
// engine itself is the complete deterministic build over the whole
// corpus — the document encoder is corpus-trained, so every process must
// hold the same model for embeddings (and therefore distances and ranks)
// to agree across the cluster. What the shard restricts is the SERVING
// state: retrieval searches only the owned embeddings. That state is
// carved out once, at construction: papers the engine accepts later are
// not retrievable through the shard until it is rebuilt.
type ShardEngine struct {
	eng   *core.Engine
	cfg   ShardConfig
	owned map[hetgraph.NodeID]bool
	// index holds the owned papers' embeddings in ascending id order, with
	// a proximity graph when cfg.UsePGIndex.
	index  *pgindex.Index
	search *pgindex.Metrics // Retrieve's graph searches, in the engine's registry
}

// NewShardEngine carves shard cfg.ID's serving state out of a built
// engine: an index over the owned embedding subset, with, when
// cfg.UsePGIndex, a deterministic proximity graph over just those.
func NewShardEngine(eng *core.Engine, cfg ShardConfig) (*ShardEngine, error) {
	if cfg.Of < 1 || cfg.ID < 0 || cfg.ID >= cfg.Of {
		return nil, fmt.Errorf("cluster: invalid shard id %d of %d", cfg.ID, cfg.Of)
	}
	se := &ShardEngine{eng: eng, cfg: cfg, owned: map[hetgraph.NodeID]bool{},
		search: pgindex.NewMetrics(eng.Metrics())}
	for _, p := range eng.Graph().NodesOfType(hetgraph.Paper) {
		if AssignShard(p, cfg.Of) == cfg.ID {
			se.owned[p] = true
		}
	}
	// The engine's rows are ascending, so the owned ones are too.
	all, rows := eng.Rows()
	var ids []hetgraph.NodeID
	var data []float32
	for i, p := range all {
		if se.owned[p] {
			ids, data = append(ids, p), append(data, rows.Row(i)...)
		}
	}
	se.index = pgindex.FromRows(ids, &vec.Matrix32{Rows: len(ids), Cols: rows.Cols, Data: data})
	if cfg.UsePGIndex {
		se.index.BuildGraph(cfg.Index, rand.New(rand.NewSource(cfg.Index.Seed)))
	}
	return se, nil
}

// ID returns the shard's position in the topology.
func (se *ShardEngine) ID() int { return se.cfg.ID }

// Of returns the topology's shard count.
func (se *ShardEngine) Of() int { return se.cfg.Of }

// NumOwned returns how many papers this shard owns.
func (se *ShardEngine) NumOwned() int { return len(se.owned) }

// Retrieve returns the top-m owned papers for the query text with exact
// L2 distances, sorted (distance ascending, id ascending). Distances come
// from the shared deterministic model, so lists from different shards
// merge under one global order.
func (se *ShardEngine) Retrieve(ctx context.Context, query string, m int) ([]pgindex.Result, error) {
	if m <= 0 {
		return nil, &core.BadParamError{Param: "m", Value: m}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := obs.StartSpan(ctx, "encode")
	qv := se.eng.EncodeQuery(query)
	sp.End()
	_, sp = obs.StartSpan(ctx, "search")
	defer sp.End()
	res, st, err := se.index.SearchCtx(ctx, qv, m, se.cfg.EF)
	if err == nil && se.cfg.UsePGIndex {
		se.search.Record(st)
	}
	return res, err
}

// Papers renders retrieved papers as the /shard/papers payload (a
// recycled response, for the caller to free once sent) under ONE read of
// the graph — a shard accepts POST /add while it answers — copying
// what it reads: with authors, each paper's ordered author ids, read once
// into one array behind every list (recycled with the response), and the
// table of those authors, each once in ascending id order — marked from
// that array in a bitset over node ids, then read out and cleared word by
// word between the lowest and the highest, no sort; with text, the
// papers' text too.
func (se *ShardEngine) Papers(res []pgindex.Result, authors, text bool) *PapersResponse {
	resp := responses.Get().(*PapersResponse)
	*resp = PapersResponse{Shard: se.cfg.ID, Papers: slices.Grow(resp.Papers[:0], len(res))[:len(res)],
		Authors: resp.Authors[:0], ids: resp.ids[:0]}
	se.eng.ReadGraph(func(g *hetgraph.Graph) {
		ids := resp.ids
		for i, p := range res {
			resp.Papers[i] = WirePaper{ID: int32(p.ID), Dist: p.Dist}
			if text {
				resp.Papers[i].Text = g.Label(p.ID)
			}
			if authors {
				from := len(ids)
				ids = append(ids, g.AuthorsOf(p.ID)...)
				resp.Papers[i].Authors = ids[from:]
			}
		}
		if len(ids) == 0 {
			return
		}
		// The lists again, now that ids has stopped moving.
		from := 0
		for i := range resp.Papers {
			n := from + len(resp.Papers[i].Authors)
			resp.Papers[i].Authors, from = ids[from:n:n], n
		}
		resp.ids = ids
		marks := authorMarks.Get().(*[]uint64)
		if words := (g.NumNodes() + 63) / 64; len(*marks) < words {
			*marks = make([]uint64, words)
		}
		set, lo, hi := *marks, len(*marks), -1
		for _, a := range ids {
			w := int(a >> 6)
			set[w] |= 1 << (a & 63)
			lo, hi = min(lo, w), max(hi, w)
		}
		for w := lo; w <= hi; w++ {
			for x := set[w]; x != 0; x &= x - 1 {
				a := hetgraph.NodeID(w<<6 + bits.TrailingZeros64(x))
				resp.Authors = append(resp.Authors, WireAuthor{ID: a, Papers: len(g.PapersOf(a)), Name: g.Label(a)})
			}
			set[w] = 0
		}
		authorMarks.Put(marks)
	})
	return resp
}

// authorMarks holds Papers' bitsets over node ids, all zero between uses
// (one that a panic leaves marked is not put back).
var authorMarks = sync.Pool{New: func() any { return new([]uint64) }}
