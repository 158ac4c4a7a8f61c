package cluster

import (
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// The internal shard wire protocol. ONE round trip serves a query:
//
//	POST /shard/papers, the body one request frame -> one response frame
//
// Each shard retrieves the top-m papers among the papers it OWNS, with
// exact distances. With authors set it adds, read under one lock of its
// graph, every retrieved paper's ordered author ids and a table of those
// authors (id, paper count, name), each once, ascending by id; text adds
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
// Request and response are binary frames walked by internal/wire
// (frame.go), little-endian throughout:
//
//	request 'Q' · version u8 (1) · m i32 · authors, text, collect u8 ·
//	       budget_ms i32 (≤ 0: none) · query str
//	frame  'P' · version u8 (2) · shard i32 · n u32 · ids u32 ·
//	       n × { id i32 · dist f64 · text str · a u32 · a × author i32 } ·
//	       t u32 · names u32 · the t names, concatenated ·
//	       t × { id i32 · papers i32 · name length u32 } · trace
//	ids    Σ a, so the decoder makes one array for every author list;
//	       names likewise Σ name length, one string for every name
//	str    len u32 · bytes (text is empty without text set; lists and
//	       table are empty without authors or text set)
//	f64    math.Float64bits: distances reach the router as the bits the
//	       shard computed, −0 and NaN payloads too
//	trace  len u32 · the shard's obs.SpanNode tree as JSON; len is 0 unless
//	       the request set collect
//
// The decoders check every count against the bytes that remain before
// they allocate, and refuse another tag or version (a JSON body and a
// version-1 response fail there), lists or names that do not add up to
// the declared totals, a table out of id order, a body that ends early and
// trailing bytes with a *FrameError: 400 from the shard, 502 the router.

// PapersRequest is the /shard/papers request body.
type PapersRequest struct {
	M int // papers to retrieve, 1 to serve.MaxM
	// Authors asks for the author lists and table, Text for the papers'
	// text besides, Collect for the shard's span tree.
	Authors, Text, Collect bool
	// BudgetMs bounds the shard's work (≤ 0: no bound); the client writes
	// each attempt's own, as a context deadline cannot cross processes.
	BudgetMs int
	Query    string // never empty
}

// WirePaper is one retrieved paper in a /shard/papers response. Dist is
// the exact L2 distance to the encoded query.
type WirePaper struct {
	ID   int32
	Dist float64
	// Text is filled only when the request asked for it: the router's
	// /papers renders it, /experts does not.
	Text string
	// Authors is the paper's ordered author list (authors or text asked).
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
	// Trace is the shard's completed span tree for this sub-request when
	// the request set Collect, which the router grafts into its trace.
	Trace *obs.SpanNode
	// ids is the array behind Papers' author lists on the shard, kept
	// with the response when it is recycled.
	ids []hetgraph.NodeID
}
