// This file holds what only the frozen benchmark still calls: bench/layers.go
// times ShardEngine.ScoreExperts for its cluster.shard_score_us row and
// compiles against the five types below (ROADMAP item 1(a) lists them for
// deletion with that row). They were the request, the response and the
// shard side of POST /shard/experts, the second scatter round of a routed
// /experts; the route, its codecs and the router's contribution merge are
// gone — the router now sums over the author lists /shard/papers ships
// (proto.go) — and nothing under internal/ or cmd/ reads any of this.

package cluster

import (
	"fmt"
	"sort"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/ta"
)

// RankedPaper names one globally ranked retrieved paper in an
// ExpertsRequest. Rank is 1-based over the merged global list.
type RankedPaper struct {
	ID   int32
	Rank int
}

// ExpertsRequest is the input of ScoreExperts. Papers must all be owned by
// the receiving shard.
type ExpertsRequest struct {
	Papers []RankedPaper
}

// Contribution is one per-paper term of an expert's partial score:
// S(a, p) of Eq. 4 for the owned paper at global rank Rank.
type Contribution struct {
	Rank int
	S    float64
}

// WireExpert is one entry of a shard's partial expert list.
type WireExpert struct {
	ID int32
	// Score is the shard-local partial sum, the ordering key.
	Score float64
	// Name and Papers carry response metadata (author label, total
	// authored papers).
	Name   string
	Papers int
	// Contribs lists the per-paper terms of Score, ascending by rank.
	Contribs []Contribution
}

// ShardExpertsResponse is the output of ScoreExperts: the shard's complete
// partial list, ordered by ta.Ranking.Before on the partial scores.
type ShardExpertsResponse struct {
	Shard   int
	Experts []WireExpert
	// Threshold bounds the partial score of any expert absent from
	// Experts, and Exhausted reports the list is complete: ScoreExperts
	// sets 0 and true.
	Threshold float64
	Exhausted bool
	Trace     *obs.SpanNode
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
