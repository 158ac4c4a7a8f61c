package baselines

import (
	"math"
	"math/rand"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// The four homogeneous-graph baselines below share a text-feature encoder
// (IDF-weighted hash-projected word vectors) and a capped homogeneous
// neighbourhood drawn from the union of all three paper-paper meta-paths —
// deliberately treating every relationship equally, the noise source §I
// attributes to homogeneous-graph methods.

// textFeatureEncoder supplies the lexical document features shared by the
// corpus-trained dense baselines: the same frozen pre-trained encoder the
// SBERT baseline uses (subword tokenizer, distributional pre-training,
// IDF-weighted mean pooling). All dense baselines therefore have identical
// lexical capability and differ only in how they use graph structure — the
// dimension the paper's Table II actually compares.
type textFeatureEncoder struct {
	enc *textenc.Encoder
}

func newTextFeatures(g *hetgraph.Graph, dim int, seed int64) *textFeatureEncoder {
	return &textFeatureEncoder{enc: frozenEncoder(g, dim, seed)}
}

func (e *textFeatureEncoder) encode(text string) vec.Vector {
	// Baselines accumulate in float64 throughout; widen the float32
	// encoder output at the boundary.
	return e.enc.Encode(text).Float64()
}

// frozenEncoder memoises one pre-trained encoder per (graph, dim, seed) so
// the seven baselines and the ADS reference space don't each re-run
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
	tf   *textFeatureEncoder
	embs map[hetgraph.NodeID]vec.Vector
}

// NewTADW returns an unbuilt TADW baseline.
func NewTADW(dim int, seed int64) *TADW { return &TADW{dim: dim, seed: seed} }

// Name implements Method.
func (t *TADW) Name() string { return "TADW" }

// Build implements Method.
func (t *TADW) Build(g *hetgraph.Graph) error {
	t.tf = newTextFeatures(g, t.dim, t.seed)
	papers := g.NodesOfType(hetgraph.Paper)
	base := make(map[hetgraph.NodeID]vec.Vector, len(papers))
	nbrs := make(map[hetgraph.NodeID][]hetgraph.NodeID, len(papers))
	for _, p := range papers {
		base[p] = t.tf.encode(g.Label(p))
		nbrs[p] = homoNeighbors(g, p, allMetaPaths)
	}
	hop1 := smooth(base, nbrs)
	hop2 := smooth(hop1, nbrs)
	t.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		e := base[p].Clone().Scale(0.5)
		e.Axpy(0.35, hop1[p])
		e.Axpy(0.15, hop2[p])
		t.embs[p] = e
	}
	return nil
}

// QueryPapers implements Method.
func (t *TADW) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(t.embs, t.tf.encode(text), m)
}

// smooth returns, for every paper, the mean of its neighbours' vectors
// (itself when isolated).
func smooth(base map[hetgraph.NodeID]vec.Vector,
	nbrs map[hetgraph.NodeID][]hetgraph.NodeID) map[hetgraph.NodeID]vec.Vector {
	out := make(map[hetgraph.NodeID]vec.Vector, len(base))
	for p, ns := range nbrs {
		if len(ns) == 0 {
			out[p] = base[p].Clone()
			continue
		}
		m := vec.New(base[p].Dim())
		for _, q := range ns {
			m.Add(base[q])
		}
		out[p] = m.Scale(1 / float64(len(ns)))
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
	tf   *textFeatureEncoder
	embs map[hetgraph.NodeID]vec.Vector
}

// NewGVNRT returns an unbuilt GVNR-t baseline.
func NewGVNRT(dim int, seed int64) *GVNRT { return &GVNRT{dim: dim, seed: seed} }

// Name implements Method.
func (t *GVNRT) Name() string { return "GVNR-t" }

// Build implements Method.
func (t *GVNRT) Build(g *hetgraph.Graph) error {
	t.tf = newTextFeatures(g, t.dim, t.seed)
	papers := g.NodesOfType(hetgraph.Paper)
	base := make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		base[p] = t.tf.encode(g.Label(p))
	}
	t.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		ns := homoNeighbors(g, p, allMetaPaths)
		e := base[p].Clone().Scale(0.6)
		if len(ns) > 0 {
			agg := vec.New(t.dim)
			var wsum float64
			for _, q := range ns {
				w := 1 / math.Log(2+float64(len(g.Neighbors(q, hetgraph.Author))+
					len(g.Neighbors(q, hetgraph.Paper))))
				agg.Axpy(w, base[q])
				wsum += w
			}
			if wsum > 0 {
				e.Axpy(0.4/wsum, agg)
			}
		}
		t.embs[p] = e
	}
	return nil
}

// QueryPapers implements Method.
func (t *GVNRT) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(t.embs, t.tf.encode(text), m)
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
	tf     *textFeatureEncoder
	embs   map[hetgraph.NodeID]vec.Vector
}

// NewG2G returns an unbuilt G2G baseline.
func NewG2G(dim int, seed int64) *G2G { return &G2G{dim: dim, seed: seed, epochs: 2} }

// Name implements Method.
func (t *G2G) Name() string { return "G2G" }

// Build implements Method.
func (t *G2G) Build(g *hetgraph.Graph) error {
	t.tf = newTextFeatures(g, t.dim, t.seed)
	papers := g.NodesOfType(hetgraph.Paper)
	t.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	nbrs := make(map[hetgraph.NodeID][]hetgraph.NodeID, len(papers))
	for _, p := range papers {
		t.embs[p] = t.tf.encode(g.Label(p))
		nbrs[p] = homoNeighbors(g, p, allMetaPaths)
	}
	rng := rand.New(rand.NewSource(t.seed))
	const lr, margin = 0.05, 1.0
	for epoch := 0; epoch < t.epochs; epoch++ {
		for _, p := range papers {
			ns := nbrs[p]
			if len(ns) == 0 {
				continue
			}
			pos := ns[rng.Intn(len(ns))]
			neg := papers[rng.Intn(len(papers))]
			if neg == p || neg == pos {
				continue
			}
			vp, vpos, vneg := t.embs[p], t.embs[pos], t.embs[neg]
			dp := vp.Clone().Sub(vpos)
			dn := vp.Clone().Sub(vneg)
			np, nn := dp.Norm(), dn.Norm()
			if np-nn+margin <= 0 {
				continue
			}
			if np > 0 {
				vp.Axpy(-lr/np, dp)
				vpos.Axpy(lr/np, dp)
			}
			if nn > 0 {
				vp.Axpy(lr/nn, dn)
				vneg.Axpy(-lr/nn, dn)
			}
		}
	}
	return nil
}

// QueryPapers implements Method.
func (t *G2G) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(t.embs, t.tf.encode(text), m)
}

// IDNE is the topic-word-attention baseline [52], simulated as
// attention-weighted lexical features: each word's weight is its
// discriminativeness max_t P(t|w), estimated from co-occurrence between
// words and the topics papers mention. Structure enters only through the
// Mention edges used to fit the attention, as in the original inductive
// model.
type IDNE struct {
	dim  int
	seed int64
	att  map[string]float64
	df   map[string]int
	n    int
	embs map[hetgraph.NodeID]vec.Vector
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
	// Word-topic co-occurrence counts.
	wordTopic := map[string][]int{}
	wordTotal := map[string]int{}
	t.df = map[string]int{}
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
			t.df[w]++
			counts := wordTopic[w]
			if counts == nil {
				counts = make([]int, len(topics))
				wordTopic[w] = counts
			}
			for _, ti := range tids {
				counts[ti]++
			}
			wordTotal[w]++
		}
	}
	// Attention: how concentrated the word's topic distribution is.
	t.att = make(map[string]float64, len(wordTopic))
	for w, counts := range wordTopic {
		maxC := 0
		for _, c := range counts {
			if c > maxC {
				maxC = c
			}
		}
		if wordTotal[w] > 0 {
			t.att[w] = float64(maxC) / float64(wordTotal[w])
		}
	}
	t.embs = make(map[hetgraph.NodeID]vec.Vector, len(papers))
	for _, p := range papers {
		t.embs[p] = t.encode(g.Label(p))
	}
	return nil
}

func (t *IDNE) encode(text string) vec.Vector {
	out := vec.New(t.dim)
	var total float64
	for _, w := range textenc.SplitWords(text) {
		a, ok := t.att[w]
		if !ok {
			a = 0.5 // unseen words get neutral attention
		}
		idf := math.Log(1 + float64(t.n)/float64(1+t.df[w]))
		wt := a * idf
		out.Axpy(wt, textenc.SurfaceVector(t.dim, w, t.seed).Float64())
		total += wt
	}
	if total > 0 {
		out.Scale(1 / total)
	}
	return out
}

// QueryPapers implements Method.
func (t *IDNE) QueryPapers(text string, m int) []hetgraph.NodeID {
	return rankByDistance(t.embs, t.encode(text), m)
}
