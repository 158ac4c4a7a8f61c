package cluster

import "expertfind/internal/obs"

// The internal shard wire protocol. Exactly two round trips serve one
// /experts query:
//
//  1. GET /shard/papers?q=<text>&m=<count>[&meta=1] — each shard retrieves
//     the top-m papers among the papers it OWNS, with exact distances. The
//     router merges all shards' lists by (distance, id) into the global
//     top-m and assigns global ranks 1..m.
//
//  2. POST /shard/experts [(id, global rank)] — each owning shard receives
//     its ranked papers once, scores their experts and returns its COMPLETE
//     partial list, the only kind the frame can carry, so the router's
//     merge (finalRanking) is the single-node sum over all of them; the
//     response is bounded by the request (papers sent × authors per paper).
//
// Expert and paper ids on the wire are GLOBAL: every process builds the
// same deterministic engine over the same corpus, so node ids agree
// everywhere and no translation tables are needed in the hot path.
//
// Both responses and the experts request travel as one binary frame
// (frame.go), little-endian throughout:
//
//	frame  tag u8 · version u8 (1) · body
//	'P'    papers response: shard i32 · n u32 · n × { id i32 · dist f64 ·
//	       text str · a u32 · a × author str } · trace
//	'Q'    experts request: n u32 · n × { id i32 · rank i32 }
//	'E'    experts response: shard i32 · n u32 · n × { id i32 · score f64 ·
//	       papers i32 · name str · c u32 · c × { rank i32 · s f64 } } · trace
//	str    len u32 · bytes (text and authors are empty without meta=1)
//	f64    math.Float64bits: distances, scores and contributions reach the
//	       router as the bits the shard computed, −0 and NaN payloads too
//	trace  len u32 · the shard's obs.SpanNode tree as JSON; len is 0 unless
//	       the request carried X-Trace-Collect
//
// The decoder checks every count against the bytes that remain before it
// allocates, and refuses another tag or version (a JSON body fails there),
// a body that ends early and trailing bytes with a *FrameError.

// WirePaper is one retrieved paper in a /shard/papers response. Dist is
// the exact L2 distance to the encoded query.
type WirePaper struct {
	ID   int32
	Dist float64
	// Text and Authors are filled only when the request asked for
	// metadata (meta=1) — the router's /papers needs them, the /experts
	// round 1 does not.
	Text    string
	Authors []string
}

// PapersResponse is the /shard/papers payload.
type PapersResponse struct {
	Shard  int
	Papers []WirePaper
	// Trace is the shard's completed span tree for this sub-request,
	// present only when the router asked for collection (X-Trace-Collect)
	// — the raw material it grafts into the assembled per-query trace.
	Trace *obs.SpanNode
}

// RankedPaper names one globally ranked retrieved paper in a
// /shard/experts request. Rank is 1-based over the merged global list.
type RankedPaper struct {
	ID   int32
	Rank int
}

// ExpertsRequest is the POST /shard/experts body. Papers must all be
// owned by the receiving shard.
type ExpertsRequest struct {
	Papers []RankedPaper
}

// Contribution is one per-paper term of an expert's partial score:
// S(a, p) of Eq. 4 for the owned paper at global rank Rank. The router
// adds every shard's contributions to one ta.Scores in ascending global
// rank — the exact float summation order of single-node ta.TopExperts —
// so merged scores are bit-identical to the single-node path.
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
	// authored papers) so the router can render results without a corpus.
	Name   string
	Papers int
	// Contribs lists the per-paper terms of Score, ascending by rank.
	Contribs []Contribution
}

// ShardExpertsResponse is the /shard/experts payload: the shard's complete
// partial list, ordered by ta.Ranking.Before on the partial scores.
type ShardExpertsResponse struct {
	Shard   int
	Experts []WireExpert
	// Threshold bounds the partial score of any expert absent from
	// Experts, and Exhausted reports the list is complete: every expert
	// with a non-zero partial score on this shard is present. Neither is
	// on the wire — ScoreExperts and the decoder both set 0 and true —
	// and nothing but bench/ reads them (ROADMAP item 3(a)).
	Threshold float64
	Exhausted bool
	// Trace is the shard's completed span tree for this sub-request,
	// present only when the router asked for collection (X-Trace-Collect).
	Trace *obs.SpanNode
}
