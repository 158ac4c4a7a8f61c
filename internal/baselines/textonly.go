package baselines

import (
	"expertfind/internal/hetgraph"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// AvgGloVe is the averaged-word-vector baseline [48]: each word gets a
// fixed dense vector (here a deterministic hash projection standing in for
// the GloVe co-occurrence factorisation, per DESIGN.md) and a document is
// the unweighted mean of its word vectors. No subwords, no IDF weighting —
// the weakest dense text representation, as in Table II.
type AvgGloVe struct {
	dim  int
	seed int64
	embs map[hetgraph.NodeID]vec.Vector
}

// NewAvgGloVe returns an unbuilt AvgGloVe baseline of dimension dim.
func NewAvgGloVe(dim int, seed int64) *AvgGloVe { return &AvgGloVe{dim: dim, seed: seed} }

// Name implements Method.
func (a *AvgGloVe) Name() string { return "AvgGloVe" }

// Build embeds every paper of g.
func (a *AvgGloVe) Build(g *hetgraph.Graph) error {
	papers := g.NodesOfType(hetgraph.Paper)
	a.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		a.embs[p] = a.encode(g.Label(p))
	}
	return nil
}

// QueryPapers implements Method.
func (a *AvgGloVe) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(a.embs, a.encode(text), m)
}

// encode averages the hash-projected vectors of the document's words.
func (a *AvgGloVe) encode(text string) vec.Vector {
	out := vec.New(a.dim)
	words := textenc.SplitWords(text)
	if len(words) == 0 {
		return out
	}
	for _, w := range words {
		out.Add(wordVector(w, a.dim, a.seed))
	}
	return out.Scale(1 / float64(len(words)))
}

// wordVector returns the deterministic hash-projected vector of a word.
func wordVector(w string, dim int, seed int64) vec.Vector {
	v := vec.New(dim)
	textenc.HashVector(v, w, seed)
	return v
}

// SBERT is the frozen pre-trained sentence-encoder baseline [23]: our
// simulated pre-trained document encoder (subword tokenizer, IDF-weighted
// mean pooling) with no structural fine-tuning. It is exactly the encoder
// the paper's method starts from, making the Table II gap attributable to
// the (k,P)-core fine-tuning alone.
type SBERT struct {
	dim  int
	seed int64
	enc  *textenc.Encoder
	embs map[hetgraph.NodeID]vec.Vector
}

// NewSBERT returns an unbuilt SBERT baseline of dimension dim.
func NewSBERT(dim int, seed int64) *SBERT { return &SBERT{dim: dim, seed: seed} }

// Name implements Method.
func (s *SBERT) Name() string { return "SBERT" }

// Build induces a vocabulary over g's corpus and embeds every paper with
// the frozen encoder.
func (s *SBERT) Build(g *hetgraph.Graph) error {
	s.enc = frozenEncoder(g, s.dim, s.seed)
	papers := g.NodesOfType(hetgraph.Paper)
	s.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		s.embs[p] = s.enc.Encode(g.Label(p)).Float64()
	}
	return nil
}

// QueryPapers implements Method.
func (s *SBERT) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(s.embs, s.enc.Encode(text).Float64(), m)
}

// Encoder exposes the frozen encoder; the experiment harness uses it as
// the common reference space for the ADS metric.
func (s *SBERT) Encoder() *textenc.Encoder { return s.enc }

// Embeddings exposes the frozen paper representations.
func (s *SBERT) Embeddings() map[hetgraph.NodeID]vec.Vector { return s.embs }
