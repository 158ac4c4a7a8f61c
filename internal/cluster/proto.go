package cluster

import (
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The internal shard wire protocol. ONE round trip serves a query:
//
//	GET /shard/papers?q=<text>&m=<count>[&authors=1][&meta=1]
//
// Each shard retrieves the top-m papers among the papers it OWNS, with
// exact distances. With authors=1 it adds, read under one lock of its
// graph, every retrieved paper's ordered author ids and a table of those
// authors (id, paper count, name), each once, ascending by id; meta=1 adds
// the papers' text as well. The router merges the shards' lists by
// (distance, id) into the global top-m, and that is all /experts needs:
// S(a,p) = w(a,p)/rank(p) of Eq. 4 depends only on the paper's global rank,
// the author's position and the paper's author count, so the router feeds
// the merged author lists to ta.TopExpertsOf — the loop the single node
// runs over its graph — and names the n winners from the tables.
//
// Expert and paper ids on the wire are GLOBAL: every process builds the
// same deterministic engine over the same corpus, so node ids agree
// everywhere. The router re-keys authors only to index its accumulator,
// as positions in the merged ascending author table.
//
// The response travels as one binary frame (frame.go), little-endian
// throughout:
//
//	frame  'P' · version u8 (2) · shard i32 · n u32 · ids u32 ·
//	       n × { id i32 · dist f64 · text str · a u32 · a × author i32 } ·
//	       t u32 · names u32 · the t names, concatenated ·
//	       t × { id i32 · papers i32 · name length u32 } · trace
//	ids    Σ a, so the decoder makes one array for every author list;
//	       names likewise Σ name length, one string for every name
//	str    len u32 · bytes (text is empty without meta=1; lists and table
//	       are empty without authors=1 or meta=1)
//	f64    math.Float64bits: distances reach the router as the bits the
//	       shard computed, −0 and NaN payloads too
//	trace  len u32 · the shard's obs.SpanNode tree as JSON; len is 0 unless
//	       the request carried X-Trace-Collect
//
// The decoder checks every count against the bytes that remain before it
// allocates, and refuses another tag or version (a JSON body and a
// version-1 frame fail there), lists or names that do not add up to the
// declared totals, a table out of id order, a body that ends early and
// trailing bytes with a *FrameError.

// WirePaper is one retrieved paper in a /shard/papers response. Dist is
// the exact L2 distance to the encoded query.
type WirePaper struct {
	ID   int32
	Dist float64
	// Text is filled only when the request asked for it (meta=1): the
	// router's /papers renders it, /experts does not.
	Text string
	// Authors is the paper's ordered author list (authors=1 or meta=1).
	// Decoded, the lists of one response share one array.
	Authors []hetgraph.NodeID
}

// WireAuthor is one entry of a response's author table: what the router
// needs to render an expert (or a paper's author) without a corpus.
type WireAuthor struct {
	ID hetgraph.NodeID
	// Papers is the total number of papers the author wrote, on any shard.
	Papers int
	Name   string
}

// PapersResponse is the /shard/papers payload.
type PapersResponse struct {
	Shard  int
	Papers []WirePaper
	// Authors holds every author of Papers once, ascending by id.
	Authors []WireAuthor
	// Trace is the shard's completed span tree for this sub-request,
	// present only when the router asked for collection (X-Trace-Collect)
	// — the raw material it grafts into the assembled per-query trace.
	Trace *obs.SpanNode
}
