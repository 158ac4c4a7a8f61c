// Package baselines implements the seven text-based expert-finding
// comparison methods of §VI-A as faithful algorithmic skeletons (see
// DESIGN.md): three that use only the papers' textual semantics (TFIDF,
// Avg.GloVe-sim, SBERT-sim) and four that embed the homogeneous
// paper-paper graph together with text (TADW-sim, GVNR-t-sim, G2G-sim,
// IDNE-sim). Each of the six dense methods keeps one float32 row per
// paper and retrieves through pgindex.Scan, the engine's exact scan;
// TFIDF retrieves through an inverted index. The experiment harness ranks
// the retrieved papers' experts with ta.TopExperts, the engine's ranker,
// so the methods differ only in how they represent papers and queries.
package baselines

import (
	"context"
	"slices"

	"expertfind/internal/hetgraph"
	"expertfind/internal/pgindex"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// Method is a text-based expert-finding baseline. Build runs the offline
// stage over the graph (the corpus is every paper's label); QueryPapers
// returns the m papers most similar to the query text, rank 1 first.
type Method interface {
	Name() string
	Build(g *hetgraph.Graph) error
	QueryPapers(text string, m int) []hetgraph.NodeID
}

// All returns one instance of every baseline with its default
// configuration, in the order of Table II. dim is the embedding dimension
// used by the dense methods; seed drives their deterministic
// initialisation.
func All(dim int, seed int64) []Method {
	return []Method{
		NewTADW(dim, seed),
		NewGVNRT(dim, seed),
		NewG2G(dim, seed),
		NewIDNE(dim, seed),
		NewTFIDF(),
		NewAvgGloVe(dim, seed),
		NewSBERT(dim, seed),
	}
}

// paperRows is a dense baseline's paper space: one float32 row per paper
// of the graph, ids ascending. Every dense baseline retrieves through
// query, the engine's exact scan.
type paperRows struct {
	ids  []hetgraph.NodeID
	rows *vec.Matrix32
}

// newPaperRows returns a zero row of width dim for every paper of g.
func newPaperRows(g *hetgraph.Graph, dim int) paperRows {
	ids := g.NodesOfType(hetgraph.Paper)
	return paperRows{ids: ids, rows: vec.NewMatrix32(len(ids), dim)}
}

// encodeRows returns every paper of g encoded by enc.
func encodeRows(g *hetgraph.Graph, enc *textenc.Encoder) paperRows {
	r := newPaperRows(g, enc.Dim)
	for i, p := range r.ids {
		copy(r.rows.Row(i), enc.Encode(g.Label(p)))
	}
	return r
}

// row returns the row of paper p.
func (r paperRows) row(p hetgraph.NodeID) vec.Vec32 {
	i, _ := slices.BinarySearch(r.ids, p)
	return r.rows.Row(i)
}

// frozenRows is the paper space of a baseline whose queries the frozen
// encoder embeds: SBERT's rows are the encoder's own, TADW's, GVNR-t's and
// G2G's start from them and are shaped by the graph.
type frozenRows struct {
	enc *textenc.Encoder
	paperRows
}

// QueryPapers implements Method.
func (f *frozenRows) QueryPapers(text string, m int) []hetgraph.NodeID {
	return f.query(f.enc.Encode(text), m)
}

// query returns the m papers closest to q by L2 distance, rank 1 first,
// a tie going to the smaller id: pgindex.Scan, the exact scan the engine
// answers with when it has no PG-Index.
func (r paperRows) query(q vec.Vec32, m int) []hetgraph.NodeID {
	res, _ := pgindex.Scan(context.Background(), r.ids, r.rows, q, m)
	out := make([]hetgraph.NodeID, len(res))
	for i, x := range res {
		out[i] = x.ID
	}
	return out
}

// corpusOf collects every paper's label, in paper order.
func corpusOf(g *hetgraph.Graph) []string {
	papers := g.NodesOfType(hetgraph.Paper)
	out := make([]string, len(papers))
	for i, p := range papers {
		out[i] = g.Label(p)
	}
	return out
}
