// Package train implements the fine-tuning stage of §III-C: the
// margin-based triplet loss of Eq. 3 over ⟨p+, p_s, p-⟩ triples, minimised
// with the Adam optimiser [33] over the encoder's token-embedding
// parameters Θ_B. Gradients are sparse (only rows of tokens appearing in a
// batch are touched), so Adam state is applied lazily per row.
package train

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/par"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// The optimiser's and the loss's settings: the paper's β1=0.9, β2=0.999
// and margin c=1. The learning rate is 0.01 rather than the paper's 2e-5 —
// the paper's value is tuned for a 110M-parameter transformer, while our
// substitute table needs larger steps to move in 4 epochs (see DESIGN.md).
// They are typed float64, so 1-beta1 is the difference of the rounded
// 0.9 (0.09999999999999998), not the 0.1 an untyped constant folds to;
// the same holds for 1-beta2. TestFineTuneGolden pins the result.
const (
	learningRate float64 = 0.01
	beta1        float64 = 0.9
	beta2        float64 = 0.999
	epsilon      float64 = 1e-8
	margin       float64 = 1 // c in Eq. 3
)

// Config holds the training schedule. Zero values select the defaults:
// 4 epochs of batches of 64 triples.
type Config struct {
	Epochs    int
	BatchSize int
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	return c
}

// Result reports a fine-tuning run.
type Result struct {
	EpochLosses []float64       // mean triplet loss per epoch
	EpochTimes  []time.Duration // wall time per epoch
	Steps       int             // optimiser steps taken
	Triples     int
}

// TokenCache maps each paper to its tokenised label, computed once so
// training and embedding never re-tokenize.
type TokenCache map[hetgraph.NodeID][]textenc.TokenID

// NewTokenCache is the token cache of papers, docs[i] the tokens of
// papers[i]'s label — the lists textenc.BuildVocabTokens returns for the
// labels in that order.
func NewTokenCache(papers []hetgraph.NodeID, docs [][]textenc.TokenID) TokenCache {
	cache := make(TokenCache, len(papers))
	for i, p := range papers {
		cache[p] = docs[i]
	}
	return cache
}

// BuildTokenCache tokenises L(p) for every paper of g with enc's
// tokenizer, on up to GOMAXPROCS goroutines; a paper's tokens are a
// function of its label alone.
//
// Deprecated: build the cache with NewTokenCache from the token lists of
// textenc.BuildVocabTokens, as the engine and the experiments do.
// BuildTokenCache is kept for bench/'s replay of a build; ROADMAP item
// 1(a) deletes it.
func BuildTokenCache(g *hetgraph.Graph, enc *textenc.Encoder) TokenCache {
	papers := g.NodesOfType(hetgraph.Paper)
	tokens := make([][]textenc.TokenID, len(papers))
	tk := enc.Tokenizer()
	par.Chunks(len(papers), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			tokens[i] = tk.Tokenize(g.Label(papers[i]))
		}
	})
	return NewTokenCache(papers, tokens)
}

// gradChunks is the number of contiguous chunks every batch's gradient is
// summed in, merged in chunk order. It fixes how the float64 sums are
// grouped, so it is a constant, the same on every machine; GOMAXPROCS only
// decides how many chunks run at once (DESIGN.md, "Determinism").
const gradChunks = 8

// FineTune minimises the triplet loss over triples, updating enc's
// embedding table in place. Shuffling uses rng, and every floating-point
// sum is taken in an order fixed by the batch alone (each batch is cut
// into gradChunks contiguous chunks whose partial gradients are merged in
// chunk order), so a fixed seed reproduces the run bit for bit on any
// machine, whatever its core count.
func FineTune(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple,
	cfg Config, rng *rand.Rand) *Result {
	res, _ := fineTune(enc, cache, triples, cfg, rng)
	return res
}

// fineTune is FineTune, also returning the optimiser (nil without
// triples), whose moments the tests hold to the reference's.
func fineTune(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple,
	cfg Config, rng *rand.Rand) (*Result, *adam) {
	cfg = cfg.withDefaults()
	res := &Result{Triples: len(triples)}
	if len(triples) == 0 {
		return res, nil
	}

	opt := newAdam(enc.Emb)
	weights := poolWeights(enc, cache, triples)
	workers := make([]*worker, gradChunks)
	parts := make([]*sparseGrad, gradChunks)
	for i := range workers {
		workers[i] = newWorker(enc, cache, weights)
		parts[i] = workers[i].grad
	}
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			epochLoss += batchGradients(workers, triples, order[start:end])
			if opt.step(parts) {
				res.Steps++
			}
		}
		mean := epochLoss / float64(len(order))
		res.EpochLosses = append(res.EpochLosses, mean)
		res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
	}
	return res, opt
}

// batchGradients computes the batch's partial gradients and returns its
// total loss. Worker c takes chunk c of the batch, triple by triple in
// batch order, into its own sparse gradient; adam.step merges them. The
// losses are summed in chunk order.
func batchGradients(workers []*worker, triples []sampling.Triple, batch []int) float64 {
	for _, w := range workers {
		w.grad.reset()
		w.loss = 0
	}
	par.Chunks(len(batch), len(workers), func(c, lo, hi int) {
		w := workers[c]
		for _, idx := range batch[lo:hi] {
			w.loss += w.tripleGradient(triples[idx], margin)
		}
	})
	var loss float64
	for _, w := range workers {
		loss += w.loss
	}
	return loss
}

// poolWeights resolves, once per paper that occurs in triples, the
// mean-pooling weights of its tokens (they depend on the vocabulary's IDF
// table, which training does not change). All weights share one flat
// slice.
func poolWeights(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple) map[hetgraph.NodeID][]float64 {
	weights := map[hetgraph.NodeID][]float64{}
	total := 0
	for _, t := range triples {
		for _, p := range [3]hetgraph.NodeID{t.Seed, t.Pos, t.Neg} {
			if _, ok := weights[p]; !ok {
				weights[p] = nil
				total += len(cache[p])
			}
		}
	}
	flat := make([]float64, 0, total)
	for p := range weights {
		lo := len(flat)
		flat = append(flat, enc.PoolWeights(cache[p])...)
		weights[p] = flat[lo:len(flat):len(flat)]
	}
	return weights
}

// sparseGrad is a sum of per-token gradient rows: dense float64 rows
// handed out of one arena in first-touch order and found through a
// token → slot array, so accumulating into a row is an index, not a map
// probe, and a reset costs only the rows that were touched.
type sparseGrad struct {
	dim   int
	slot  []int32           // per token: its index in ids, -1 when untouched
	ids   []textenc.TokenID // touched tokens
	arena []float64         // len(ids) rows of dim values, row s for ids[s]
}

func newSparseGrad(tokens, dim int) *sparseGrad {
	g := &sparseGrad{dim: dim, slot: make([]int32, tokens)}
	for i := range g.slot {
		g.slot[i] = -1
	}
	return g
}

// row returns the gradient row of token id, a zero row on first touch.
// The row is valid until the next first touch, which may move the arena.
func (g *sparseGrad) row(id textenc.TokenID) vec.Vector {
	s := g.slot[id]
	if s < 0 {
		s = int32(len(g.ids))
		g.slot[id] = s
		g.ids = append(g.ids, id)
		n := len(g.arena) + g.dim
		if n > cap(g.arena) {
			// Double: append grows a large slice by a quarter, and the
			// copies that leaves behind, times gradChunks arenas, would
			// raise the build's peak memory.
			g.arena = append(make([]float64, 0, 2*n), g.arena...)
		}
		g.arena = g.arena[:n]
		clear(g.at(int(s)))
	}
	return g.at(int(s))
}

// at returns row s of the arena, the gradient of token ids[s].
func (g *sparseGrad) at(s int) vec.Vector { return g.arena[s*g.dim : (s+1)*g.dim] }

func (g *sparseGrad) reset() {
	for _, id := range g.ids {
		g.slot[id] = -1
	}
	g.ids = g.ids[:0]
	g.arena = g.arena[:0]
}

// worker is one goroutine's share of a batch: the sparse gradient and loss
// it accumulates, and the scratch its forward and backward passes run in.
type worker struct {
	enc     *textenc.Encoder
	cache   TokenCache
	weights map[hetgraph.NodeID][]float64
	grad    *sparseGrad
	loss    float64
	// seed, pos and neg are the three documents of the triple in hand;
	// dp and dn hold v_s - v_+ and v_s - v_-.
	seed, pos, neg pooledDoc
	dp, dn         vec.Vector
}

// pooledDoc is one document's way through the encoder and back.
type pooledDoc struct {
	toks []textenc.TokenID
	ws   []float64  // mean-pooling weights of toks
	u    vec.Vector // pooled, before normalisation
	norm float64    // ‖u‖
	v    vec.Vector // what the loss sees: u/‖u‖ in unit, or u itself when ‖u‖ = 0
	unit vec.Vector // backing store of v when ‖u‖ ≠ 0
	g    vec.Vector // ∂L/∂v, then ∂L/∂u
}

func newWorker(enc *textenc.Encoder, cache TokenCache, weights map[hetgraph.NodeID][]float64) *worker {
	w := &worker{enc: enc, cache: cache, weights: weights,
		grad: newSparseGrad(enc.Emb.Rows, enc.Dim), dp: vec.New(enc.Dim), dn: vec.New(enc.Dim)}
	for _, d := range []*pooledDoc{&w.seed, &w.pos, &w.neg} {
		d.u, d.unit, d.g = vec.New(enc.Dim), vec.New(enc.Dim), vec.New(enc.Dim)
	}
	return w
}

// forward pools paper p as Encoder.EncodeTokensRaw64 does — the float32
// table in float64, because the finite-difference gradient check needs
// loss resolution float32 partial sums cannot provide — and normalises as
// Encoder.EncodeTokens does.
func (w *worker) forward(d *pooledDoc, p hetgraph.NodeID) {
	d.toks, d.ws = w.cache[p], w.weights[p]
	emb := w.enc.Emb
	d.u.Zero()
	for i, id := range d.toks {
		vec.AxpyInto64(d.u, d.ws[i], emb.Row(int(id)))
	}
	d.norm = d.u.Norm()
	d.v = d.u
	if d.norm != 0 {
		copy(d.unit, d.u)
		d.v = d.unit.Scale(1 / d.norm)
	}
}

// backward routes d.g, the gradient on the document vector, into token
// rows. Through the normalisation v = u/‖u‖ first: ∂L/∂u = (g - (g·v)v)/‖u‖.
// Then every token receives its pooling weight's share
// (∂v_doc/∂row_t = w_t · I).
func (w *worker) backward(d *pooledDoc) {
	if len(d.toks) == 0 {
		return
	}
	if d.norm != 0 {
		d.g.Axpy(-d.g.Dot(d.v), d.v).Scale(1 / d.norm)
	}
	for i, id := range d.toks {
		w.grad.row(id).Axpy(d.ws[i], d.g)
	}
}

// tripleGradient accumulates ∂L/∂Θ_B for one triple into w.grad and
// returns the triple's loss L = max(δ(v_s,v+) - δ(v_s,v-) + c, 0).
func (w *worker) tripleGradient(t sampling.Triple, c float64) float64 {
	s, p, n := &w.seed, &w.pos, &w.neg
	w.forward(s, t.Seed)
	w.forward(p, t.Pos)
	w.forward(n, t.Neg)

	copy(w.dp, s.v)
	copy(w.dn, s.v)
	np := w.dp.Sub(p.v).Norm() // δ(v_s, v_+)
	nn := w.dn.Sub(n.v).Norm() // δ(v_s, v_-)
	loss := np - nn + c
	if loss <= 0 {
		return 0
	}

	// ∂δ(v_s,v_+)/∂v_s = (v_s - v_+)/δ; guard zero distances.
	s.g.Zero()
	p.g.Zero()
	n.g.Zero()
	if np > 0 {
		s.g.Axpy(1/np, w.dp)
		p.g.Axpy(-1/np, w.dp)
	}
	if nn > 0 {
		s.g.Axpy(-1/nn, w.dn)
		n.g.Axpy(1/nn, w.dn)
	}
	w.backward(s)
	w.backward(p)
	w.backward(n)
	return loss
}

// adam holds the optimiser state for the embedding table: first and second
// moment estimates per parameter, updated lazily per touched row with a
// per-row timestep (standard "lazy Adam" for sparse gradients). The
// weights live in float32; moments and the update arithmetic stay in
// float64, with one rounding when the new weight is stored — mixed
// precision in the usual sense, so tiny gradients still move the moments.
type adam struct {
	table *vec.Matrix32
	m, v  *vec.Matrix
	tRow  []int // per-row step count for bias correction
	// bc1[t] and bc2[t] are the bias corrections 1-β1^t and 1-β2^t of a
	// row's step t, grown by one entry per optimiser step (no row can be
	// further along than the optimiser).
	bc1, bc2 []float64
	// rows lists the rows the step in hand touches, marked in seen.
	rows []textenc.TokenID
	seen []bool
}

func newAdam(table *vec.Matrix32) *adam {
	return &adam{
		table: table,
		m:     vec.NewMatrix(table.Rows, table.Cols),
		v:     vec.NewMatrix(table.Rows, table.Cols),
		tRow:  make([]int, table.Rows),
		bc1:   []float64{0},
		bc2:   []float64{0},
		seen:  make([]bool, table.Rows),
	}
}

// step merges the partial gradients and applies one Adam update to every
// row any of them touched, reporting whether there was one. A row's
// gradient is the sum of its partial rows in part order, taken in the
// first part that has the row, so its bits do not depend on which parts
// touched other rows. The rows are split across up to GOMAXPROCS
// goroutines: a row's merge and update read and write that row's state
// only, so how the rows are split changes no bit.
func (a *adam) step(parts []*sparseGrad) bool {
	a.rows = a.rows[:0]
	for _, p := range parts {
		for _, id := range p.ids {
			if !a.seen[id] {
				a.seen[id] = true
				a.rows = append(a.rows, id)
			}
		}
	}
	if len(a.rows) == 0 {
		return false
	}
	t := float64(len(a.bc1))
	a.bc1 = append(a.bc1, 1-math.Pow(beta1, t))
	a.bc2 = append(a.bc2, 1-math.Pow(beta2, t))
	par.Chunks(len(a.rows), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		k := vec.AdamCoef{Beta1: beta1, OneMinusBeta1: 1 - beta1, Beta2: beta2, OneMinusBeta2: 1 - beta2,
			LearningRate: learningRate, Epsilon: epsilon}
		for _, id := range a.rows[lo:hi] {
			r := int(id)
			a.seen[r] = false
			var g vec.Vector
			for _, p := range parts {
				if s := p.slot[r]; s >= 0 {
					if g == nil {
						g = p.at(int(s))
					} else {
						g.Add(p.at(int(s)))
					}
				}
			}
			a.tRow[r]++
			k.BiasCorr1, k.BiasCorr2 = a.bc1[a.tRow[r]], a.bc2[a.tRow[r]]
			vec.AdamRow(a.table.Row(r), a.m.Row(r), a.v.Row(r), g, &k)
		}
	})
	return true
}

// EmbedRows computes the fine-tuned representation of every paper in
// cache, in parallel, into one matrix: ids ascending, row i the embedding
// of ids[i]. Each goroutine pools straight into its own range of rows,
// reusing one scratch for the pool weights, so how they are split changes
// no bit. The pair is E in the form the PG-Index adopts
// (pgindex.FromRows).
func EmbedRows(enc *textenc.Encoder, cache TokenCache) ([]hetgraph.NodeID, *vec.Matrix32) {
	ids := make([]hetgraph.NodeID, 0, len(cache))
	for id := range cache {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rows := vec.NewMatrix32(len(ids), enc.Dim)
	par.Chunks(len(ids), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		var ws []float64
		for i := lo; i < hi; i++ {
			ws = enc.EncodeTokensInto(rows.Row(i), cache[ids[i]], ws)
		}
	})
	return ids, rows
}

// EmbedAll is EmbedRows as a map of row views.
//
// Deprecated: embed with EmbedRows, as the engine and the experiments do.
// EmbedAll is kept for bench/'s replay of a build; ROADMAP item 1(a)
// deletes it.
func EmbedAll(enc *textenc.Encoder, cache TokenCache) map[hetgraph.NodeID]vec.Vec32 {
	ids, rows := EmbedRows(enc, cache)
	out := make(map[hetgraph.NodeID]vec.Vec32, len(ids))
	for i, id := range ids {
		out[id] = rows.Row(i)
	}
	return out
}

// String renders the result compactly for logs.
func (r *Result) String() string {
	return fmt.Sprintf("train: %d triples, %d steps, losses %v", r.Triples, r.Steps, r.EpochLosses)
}
