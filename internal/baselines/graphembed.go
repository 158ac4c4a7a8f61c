package baselines

import (
	"math"
	"math/rand"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// The homogeneous-graph baselines below start from text features and a
// capped homogeneous neighbourhood drawn from the union of all three
// paper-paper meta-paths — deliberately treating every relationship
// equally, the noise source §I attributes to homogeneous-graph methods.
// TADW, GVNR-t and G2G take their text features from the frozen
// pre-trained encoder the SBERT baseline uses (subword tokenizer,
// distributional pre-training, IDF-weighted mean pooling), so they have
// SBERT's lexical capability and differ only in how they use graph
// structure — the dimension the paper's Table II actually compares.

// frozenEncoder memoises one pre-trained encoder per (graph, dim, seed) so
// the dense baselines and the ADS reference space don't each re-run
// vocabulary induction and distributional pre-training.
var (
	frozenMu    sync.Mutex
	frozenCache = map[frozenKey]*textenc.Encoder{}
)

type frozenKey struct {
	g    *hetgraph.Graph
	dim  int
	seed int64
}

func frozenEncoder(g *hetgraph.Graph, dim int, seed int64) *textenc.Encoder {
	frozenMu.Lock()
	defer frozenMu.Unlock()
	key := frozenKey{g, dim, seed}
	if enc, ok := frozenCache[key]; ok {
		return enc
	}
	vocab, docs := textenc.BuildVocabTokens(corpusOf(g), textenc.DefaultVocabConfig())
	enc := textenc.NewEncoder(vocab, dim, seed)
	textenc.PretrainTokens(enc, docs)
	if len(frozenCache) > 8 {
		frozenCache = map[frozenKey]*textenc.Encoder{} // bound growth across many datasets
	}
	frozenCache[key] = enc
	return enc
}

// maxHomoNeighbors caps the homogeneous neighbour list per paper; the
// same-topic projection alone would otherwise create topic-sized cliques.
const maxHomoNeighbors = 50

// homoNeighbors returns up to maxHomoNeighbors paper-paper neighbours of p
// under the union of the meta-paths, round-robin across paths so each
// relationship is represented.
func homoNeighbors(g *hetgraph.Graph, p hetgraph.NodeID, mps []hetgraph.MetaPath) []hetgraph.NodeID {
	per := maxHomoNeighbors / len(mps)
	if per < 1 {
		per = 1
	}
	seen := map[hetgraph.NodeID]bool{}
	var out []hetgraph.NodeID
	for _, mp := range mps {
		cnt := 0
		g.ForEachPNeighbor(p, mp, func(q hetgraph.NodeID) bool {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
				cnt++
			}
			return cnt < per
		})
	}
	return out
}

var allMetaPaths = []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP, hetgraph.PP}

// TADW is the matrix-factorisation-with-text baseline [49], simulated as
// adjacency-smoothed text features: a paper's embedding blends its own
// lexical vector with the mean of its 1-hop and 2-hop homogeneous
// neighbours' vectors (a truncated low-rank factorisation of A·T, per
// DESIGN.md). Queries embed with text features alone.
type TADW struct {
	dim  int
	seed int64
	frozenRows
}

// NewTADW returns an unbuilt TADW baseline.
func NewTADW(dim int, seed int64) *TADW { return &TADW{dim: dim, seed: seed} }

// Name implements Method.
func (t *TADW) Name() string { return "TADW" }

// Build implements Method.
func (t *TADW) Build(g *hetgraph.Graph) error {
	t.enc = frozenEncoder(g, t.dim, t.seed)
	base := encodeRows(g, t.enc)
	nbrs := make([][]hetgraph.NodeID, len(base.ids))
	for i, p := range base.ids {
		nbrs[i] = homoNeighbors(g, p, allMetaPaths)
	}
	hop1 := smooth(base, nbrs)
	hop2 := smooth(hop1, nbrs)
	for i := range base.ids {
		e := base.rows.Row(i)
		vec.Scale32(e, 0.5)
		vec.Axpy32(e, 0.35, hop1.rows.Row(i))
		vec.Axpy32(e, 0.15, hop2.rows.Row(i))
	}
	t.paperRows = base
	return nil
}

// smooth returns, for every paper, the mean of its neighbours' rows
// (its own when isolated); nbrs[i] lists the neighbours of base.ids[i].
func smooth(base paperRows, nbrs [][]hetgraph.NodeID) paperRows {
	out := paperRows{base.ids, vec.NewMatrix32(base.rows.Rows, base.rows.Cols)}
	for i, ns := range nbrs {
		m := out.rows.Row(i)
		if len(ns) == 0 {
			copy(m, base.rows.Row(i))
			continue
		}
		for _, q := range ns {
			vec.Axpy32(m, 1, base.row(q))
		}
		vec.Scale32(m, 1/float32(len(ns)))
	}
	return out
}

// GVNRT is the GloVe-for-node-representations baseline [50], simulated as
// 1-hop smoothing with hub down-weighting: neighbour q contributes with
// weight 1/log(2+deg(q)), mirroring GloVe's damping of frequent
// co-occurrences. It is the strongest baseline in the paper's Table II.
type GVNRT struct {
	dim  int
	seed int64
	frozenRows
}

// NewGVNRT returns an unbuilt GVNR-t baseline.
func NewGVNRT(dim int, seed int64) *GVNRT { return &GVNRT{dim: dim, seed: seed} }

// Name implements Method.
func (t *GVNRT) Name() string { return "GVNR-t" }

// Build implements Method.
func (t *GVNRT) Build(g *hetgraph.Graph) error {
	t.enc = frozenEncoder(g, t.dim, t.seed)
	base := encodeRows(g, t.enc)
	t.paperRows = newPaperRows(g, t.dim)
	agg := vec.New32(t.dim)
	for i, p := range t.ids {
		e := t.rows.Row(i)
		copy(e, base.rows.Row(i))
		vec.Scale32(e, 0.6)
		clear(agg)
		var wsum float64
		for _, q := range homoNeighbors(g, p, allMetaPaths) {
			w := 1 / math.Log(2+float64(len(g.Neighbors(q, hetgraph.Author))+
				len(g.Neighbors(q, hetgraph.Paper))))
			vec.Axpy32(agg, float32(w), base.row(q))
			wsum += w
		}
		if wsum > 0 {
			vec.Axpy32(e, float32(0.4/wsum), agg)
		}
	}
	return nil
}

// G2G is the deep-Gaussian graph-embedding baseline [51], simulated as a
// per-paper free embedding initialised from text features and fine-tuned
// with a margin ranking loss over raw homogeneous edges: positives are any
// P-neighbours (all relationships treated equally — including the noisy
// ones), negatives are random papers. It is the closest relative of the
// paper's method, differing exactly in what counts as a positive pair.
type G2G struct {
	dim    int
	seed   int64
	epochs int
	frozenRows
}

// NewG2G returns an unbuilt G2G baseline.
func NewG2G(dim int, seed int64) *G2G { return &G2G{dim: dim, seed: seed, epochs: 2} }

// Name implements Method.
func (t *G2G) Name() string { return "G2G" }

// Build implements Method.
func (t *G2G) Build(g *hetgraph.Graph) error {
	t.enc = frozenEncoder(g, t.dim, t.seed)
	t.paperRows = encodeRows(g, t.enc)
	papers := t.ids
	nbrs := make([][]hetgraph.NodeID, len(papers))
	for i, p := range papers {
		nbrs[i] = homoNeighbors(g, p, allMetaPaths)
	}
	rng := rand.New(rand.NewSource(t.seed))
	const lr, margin = 0.05, 1.0
	dp, dn := vec.New32(t.dim), vec.New32(t.dim)
	for epoch := 0; epoch < t.epochs; epoch++ {
		for i, p := range papers {
			ns := nbrs[i]
			if len(ns) == 0 {
				continue
			}
			pos := ns[rng.Intn(len(ns))]
			neg := papers[rng.Intn(len(papers))]
			if neg == p || neg == pos {
				continue
			}
			vp, vpos, vneg := t.rows.Row(i), t.row(pos), t.row(neg)
			copy(dp, vp)
			vec.Axpy32(dp, -1, vpos)
			copy(dn, vp)
			vec.Axpy32(dn, -1, vneg)
			np, nn := vec.Norm32(dp), vec.Norm32(dn)
			if np-nn+margin <= 0 {
				continue
			}
			if np > 0 {
				vec.Axpy32(vp, float32(-lr/np), dp)
				vec.Axpy32(vpos, float32(lr/np), dp)
			}
			if nn > 0 {
				vec.Axpy32(vp, float32(lr/nn), dn)
				vec.Axpy32(vneg, float32(-lr/nn), dn)
			}
		}
	}
	return nil
}

// IDNE is the topic-word-attention baseline [52], simulated as
// attention-weighted lexical features: each word's weight is its
// discriminativeness max_t P(t|w), estimated from co-occurrence between
// words and the topics papers mention. Structure enters only through the
// Mention edges used to fit the attention, as in the original inductive
// model.
type IDNE struct {
	dim   int
	seed  int64
	words map[string]idneWord // every word of the corpus
	n     int
	paperRows
}

// idneWord is what IDNE's Build learns of one corpus word: its attention,
// its idf and its surface vector, drawn once rather than per occurrence.
type idneWord struct {
	att, idf float64
	vec      vec.Vec32
}

// NewIDNE returns an unbuilt IDNE baseline.
func NewIDNE(dim int, seed int64) *IDNE { return &IDNE{dim: dim, seed: seed} }

// Name implements Method.
func (t *IDNE) Name() string { return "IDNE" }

// Build implements Method.
func (t *IDNE) Build(g *hetgraph.Graph) error {
	papers := g.NodesOfType(hetgraph.Paper)
	topics := g.NodesOfType(hetgraph.Topic)
	topicIdx := map[hetgraph.NodeID]int{}
	for i, tp := range topics {
		topicIdx[tp] = i
	}
	// Word-topic co-occurrence counts and document frequencies.
	wordTopic := map[string][]int{}
	df := map[string]int{}
	t.n = len(papers)
	for _, p := range papers {
		var tids []int
		for _, tp := range g.Neighbors(p, hetgraph.Topic) {
			tids = append(tids, topicIdx[tp])
		}
		seen := map[string]bool{}
		for _, w := range textenc.SplitWords(g.Label(p)) {
			if seen[w] {
				continue
			}
			seen[w] = true
			df[w]++
			counts := wordTopic[w]
			if counts == nil {
				counts = make([]int, len(topics))
				wordTopic[w] = counts
			}
			for _, ti := range tids {
				counts[ti]++
			}
		}
	}
	// Attention: how concentrated the word's topic distribution is.
	t.words = make(map[string]idneWord, len(wordTopic))
	for w, counts := range wordTopic {
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		t.words[w] = idneWord{
			att: float64(maxC) / float64(df[w]),
			idf: t.idf(df[w]),
			vec: textenc.SurfaceVector(t.dim, w, t.seed),
		}
	}
	t.paperRows = newPaperRows(g, t.dim)
	for i, p := range t.ids {
		t.encode(t.rows.Row(i), g.Label(p))
	}
	return nil
}

// idf is the inverse document frequency of a word in df papers.
func (t *IDNE) idf(df int) float64 { return math.Log(1 + float64(t.n)/float64(1+df)) }

// encode sets dst, a zero row, to the attention- and idf-weighted mean of
// the text's word vectors. A word the corpus lacks gets neutral attention
// and a vector drawn for this call alone, so encode never writes t.words.
func (t *IDNE) encode(dst vec.Vec32, text string) {
	var total float64
	for _, w := range textenc.SplitWords(text) {
		iw, ok := t.words[w]
		if !ok {
			iw = idneWord{att: 0.5, idf: t.idf(0), vec: textenc.SurfaceVector(t.dim, w, t.seed)}
		}
		wt := iw.att * iw.idf
		vec.Axpy32(dst, float32(wt), iw.vec)
		total += wt
	}
	if total > 0 {
		vec.Scale32(dst, float32(1/total))
	}
}

// QueryPapers implements Method.
func (t *IDNE) QueryPapers(text string, m int) []hetgraph.NodeID {
	q := vec.New32(t.dim)
	t.encode(q, text)
	return t.query(q, m)
}
