package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"expertfind/internal/core"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/ta"
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
	// UsePGIndex selects approximate per-shard retrieval; false scans the
	// owned embeddings exactly (required by the equivalence tests: exact
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
// state: retrieval searches only the owned embeddings, and expert scoring
// sums only over owned papers. That state is carved out once, at
// construction: papers the engine accepts later are not retrievable
// through the shard until it is rebuilt.
type ShardEngine struct {
	eng   *core.Engine
	cfg   ShardConfig
	owned map[hetgraph.NodeID]bool
	// ids and rows are the owned papers in ascending id order, the storage
	// the exact path scans; index replaces them when cfg.UsePGIndex.
	ids   []hetgraph.NodeID
	rows  *vec.Matrix32
	index *pgindex.Index
}

// NewShardEngine carves shard cfg.ID's serving state out of a built
// engine: the owned embedding subset and, when cfg.UsePGIndex, a
// deterministic PG-Index over just those embeddings.
func NewShardEngine(eng *core.Engine, cfg ShardConfig) (*ShardEngine, error) {
	if cfg.Of < 1 || cfg.ID < 0 || cfg.ID >= cfg.Of {
		return nil, fmt.Errorf("cluster: invalid shard id %d of %d", cfg.ID, cfg.Of)
	}
	se := &ShardEngine{eng: eng, cfg: cfg, owned: map[hetgraph.NodeID]bool{}}
	embs := map[hetgraph.NodeID]vec.Vec32{}
	for _, p := range eng.Graph().NodesOfType(hetgraph.Paper) {
		if AssignShard(p, cfg.Of) != cfg.ID {
			continue
		}
		se.owned[p] = true
		if e, ok := eng.Embeddings[p]; ok {
			embs[p] = e
		}
	}
	if cfg.UsePGIndex {
		se.index = pgindex.BuildWithRand(embs, cfg.Index,
			rand.New(rand.NewSource(cfg.Index.Seed)))
	} else {
		se.ids, se.rows = pgindex.FlatRows(embs)
	}
	return se, nil
}

// ID returns the shard's position in the topology.
func (se *ShardEngine) ID() int { return se.cfg.ID }

// Of returns the topology's shard count.
func (se *ShardEngine) Of() int { return se.cfg.Of }

// NumOwned returns how many papers this shard owns.
func (se *ShardEngine) NumOwned() int { return len(se.owned) }

// Owns reports whether paper p belongs to this shard.
func (se *ShardEngine) Owns(p hetgraph.NodeID) bool { return se.owned[p] }

// Engine exposes the underlying full engine (for serving /healthz etc.).
func (se *ShardEngine) Engine() *core.Engine { return se.eng }

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
	if se.index != nil {
		res, _, err := se.index.SearchCtx(ctx, qv, m, se.cfg.EF)
		return res, err
	}
	return pgindex.Scan(ctx, se.ids, se.rows, qv, m)
}

// ScoreExperts computes the shard's complete partial expert ranking over
// the given owned papers with their GLOBAL ranks: for each paper at
// global rank j, each author at Zipf position i contributes
// ExpertScore(j, i, numAuthors) to its partial sum.
//
// Per-expert sums accumulate in ascending global rank — the single-node
// summation order — and each entry carries its per-paper contributions so
// the router can extend that order across shards. The returned list is
// complete and sorted under ta.Ranking.Before on the partial scores. A
// request naming a paper this shard does not own, a rank below 1, a paper
// twice or two papers at one rank is refused before anything is scored:
// a repeated paper would be summed twice and equal ranks have no
// summation order.
//
// The graph is read under the engine's lock: a shard accepts POST /add
// while it scores.
func (se *ShardEngine) ScoreExperts(req ExpertsRequest) (resp ShardExpertsResponse, err error) {
	se.eng.ReadGraph(func(g *hetgraph.Graph) { resp, err = se.scoreExperts(g, req) })
	return resp, err
}

func (se *ShardEngine) scoreExperts(g *hetgraph.Graph, req ExpertsRequest) (ShardExpertsResponse, error) {
	resp := ShardExpertsResponse{Shard: se.cfg.ID, Exhausted: true}

	papers := append([]RankedPaper(nil), req.Papers...)
	sort.SliceStable(papers, func(i, j int) bool { return papers[i].Rank < papers[j].Rank })
	seen := make(map[int32]bool, len(papers))
	for i, rp := range papers {
		switch {
		case !se.owned[hetgraph.NodeID(rp.ID)]:
			return resp, fmt.Errorf("cluster: paper %d is not owned by shard %d/%d",
				rp.ID, se.cfg.ID, se.cfg.Of)
		case rp.Rank < 1:
			return resp, fmt.Errorf("cluster: paper %d has invalid rank %d", rp.ID, rp.Rank)
		case i > 0 && rp.Rank == papers[i-1].Rank:
			return resp, fmt.Errorf("cluster: papers %d and %d share rank %d", papers[i-1].ID, rp.ID, rp.Rank)
		case seen[rp.ID]:
			return resp, fmt.Errorf("cluster: paper %d is listed twice", rp.ID)
		}
		seen[rp.ID] = true
	}

	type acc struct {
		ta.Ranking // the partial sum
		contribs   []Contribution
	}
	sums := map[hetgraph.NodeID]*acc{}
	var order []*acc
	for _, rp := range papers {
		authors := g.AuthorsOf(hetgraph.NodeID(rp.ID))
		for i, a := range authors {
			s := ta.ExpertScore(rp.Rank, i+1, len(authors))
			e := sums[a]
			if e == nil {
				e = &acc{Ranking: ta.Ranking{Expert: a}}
				sums[a] = e
				order = append(order, e)
			}
			e.Score += s
			e.contribs = append(e.contribs, Contribution{Rank: rp.Rank, S: s})
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Before(order[j].Ranking) })

	resp.Experts = make([]WireExpert, 0, len(order))
	for _, e := range order {
		resp.Experts = append(resp.Experts, WireExpert{
			ID:       int32(e.Expert),
			Score:    e.Score,
			Name:     g.Label(e.Expert),
			Papers:   len(g.PapersOf(e.Expert)),
			Contribs: e.contribs,
		})
	}
	return resp, nil
}

// PaperMeta fills the metadata fields of a WirePaper for /papers
// responses, mirroring the single-node PaperResult shape.
func (se *ShardEngine) PaperMeta(p hetgraph.NodeID) (text string, authors []string) {
	se.eng.ReadGraph(func(g *hetgraph.Graph) {
		text = g.Label(p)
		for _, a := range g.AuthorsOf(p) {
			authors = append(authors, g.Label(a))
		}
	})
	return text, authors
}
