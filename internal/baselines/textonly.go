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
	dim   int
	seed  int64
	words map[string]vec.Vec32 // every corpus word's vector, drawn once
	paperRows
}

// NewAvgGloVe returns an unbuilt AvgGloVe baseline of dimension dim.
func NewAvgGloVe(dim int, seed int64) *AvgGloVe { return &AvgGloVe{dim: dim, seed: seed} }

// Name implements Method.
func (a *AvgGloVe) Name() string { return "AvgGloVe" }

// Build embeds every paper of g.
func (a *AvgGloVe) Build(g *hetgraph.Graph) error {
	a.paperRows = newPaperRows(g, a.dim)
	a.words = map[string]vec.Vec32{}
	for _, p := range a.ids {
		for _, w := range textenc.SplitWords(g.Label(p)) {
			if _, ok := a.words[w]; !ok {
				a.words[w] = wordVector(w, a.dim, a.seed)
			}
		}
	}
	for i, p := range a.ids {
		a.encode(a.rows.Row(i), g.Label(p))
	}
	return nil
}

// QueryPapers implements Method.
func (a *AvgGloVe) QueryPapers(text string, m int) []hetgraph.NodeID {
	q := vec.New32(a.dim)
	a.encode(q, text)
	return a.query(q, m)
}

// encode sets dst, a zero row, to the mean of the hash-projected vectors
// of the document's words. A word the corpus lacks is drawn for this call
// alone, so encode never writes a.words.
func (a *AvgGloVe) encode(dst vec.Vec32, text string) {
	words := textenc.SplitWords(text)
	if len(words) == 0 {
		return
	}
	for _, w := range words {
		v, ok := a.words[w]
		if !ok {
			v = wordVector(w, a.dim, a.seed)
		}
		vec.Axpy32(dst, 1, v)
	}
	vec.Scale32(dst, 1/float32(len(words)))
}

// wordVector returns the deterministic hash-projected vector of a word:
// textenc.HashVector's draws, each rounded to float32.
func wordVector(w string, dim int, seed int64) vec.Vec32 {
	draws := make([]float64, dim)
	textenc.HashVector(draws, w, seed)
	v := vec.New32(dim)
	for i, x := range draws {
		v[i] = float32(x)
	}
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
	frozenRows
}

// NewSBERT returns an unbuilt SBERT baseline of dimension dim.
func NewSBERT(dim int, seed int64) *SBERT { return &SBERT{dim: dim, seed: seed} }

// Name implements Method.
func (s *SBERT) Name() string { return "SBERT" }

// Build induces a vocabulary over g's corpus and embeds every paper with
// the frozen encoder.
func (s *SBERT) Build(g *hetgraph.Graph) error {
	s.enc = frozenEncoder(g, s.dim, s.seed)
	s.paperRows = encodeRows(g, s.enc)
	return nil
}

// Encoder exposes the frozen encoder; the experiment harness uses it as
// the common reference space for the ADS metric.
func (s *SBERT) Encoder() *textenc.Encoder { return s.enc }

// Rows exposes the frozen paper representations: the papers, ascending,
// and one row each.
func (s *SBERT) Rows() ([]hetgraph.NodeID, *vec.Matrix32) { return s.ids, s.rows }
