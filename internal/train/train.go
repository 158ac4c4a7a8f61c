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

// Config holds the training hyper-parameters. Zero values select defaults:
// the paper's β1=0.9, β2=0.999, margin c=1, 4 epochs, batch size 64. The
// learning rate defaults to 0.01 rather than the paper's 2e-5 — the paper's
// value is tuned for a 110M-parameter transformer, while our substitute
// table needs larger steps to move in 4 epochs (see DESIGN.md).
type Config struct {
	LearningRate float64
	Beta1, Beta2 float64
	Epsilon      float64
	Margin       float64 // c in Eq. 3
	Epochs       int
	BatchSize    int
}

func (c Config) withDefaults() Config {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.01
	}
	if c.Beta1 <= 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 <= 0 {
		c.Beta2 = 0.999
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 1e-8
	}
	if c.Margin <= 0 {
		c.Margin = 1
	}
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

// BuildTokenCache tokenises L(p) for every paper of g with enc's
// tokenizer.
func BuildTokenCache(g *hetgraph.Graph, enc *textenc.Encoder) TokenCache {
	papers := g.NodesOfType(hetgraph.Paper)
	cache := make(TokenCache, len(papers))
	tk := enc.Tokenizer()
	for _, p := range papers {
		cache[p] = tk.Tokenize(g.Label(p))
	}
	return cache
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
	cfg = cfg.withDefaults()
	res := &Result{Triples: len(triples)}
	if len(triples) == 0 {
		return res
	}

	opt := newAdam(enc.Emb, cfg)
	weights := poolWeights(enc, cache, triples)
	workers := make([]*worker, gradChunks)
	for i := range workers {
		workers[i] = newWorker(enc, cache, weights)
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
			grads, loss := batchGradients(workers, triples, order[start:end], cfg.Margin)
			epochLoss += loss
			if len(grads.ids) > 0 {
				opt.step(grads)
				res.Steps++
			}
		}
		mean := epochLoss / float64(len(order))
		res.EpochLosses = append(res.EpochLosses, mean)
		res.EpochTimes = append(res.EpochTimes, time.Since(epochStart))
	}
	return res
}

// batchGradients computes the summed sparse gradient of the batch and its
// total loss. Worker c takes chunk c of the batch, triple by triple in
// batch order; the partial sums are then merged into worker 0's in chunk
// order. The returned gradient is worker 0's and lives until the next call.
func batchGradients(workers []*worker, triples []sampling.Triple, batch []int,
	margin float64) (*sparseGrad, float64) {
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
	total := workers[0].grad
	var loss float64
	for c, w := range workers {
		loss += w.loss
		if c > 0 {
			total.add(w.grad)
		}
	}
	return total, loss
}

// poolWeights resolves, once per paper that occurs in triples, the
// mean-pooling weights of its tokens (they depend on the vocabulary's IDF
// table, which training does not change). All weights share one flat
// slice. Max pooling has no weights and gets nil.
func poolWeights(enc *textenc.Encoder, cache TokenCache, triples []sampling.Triple) map[hetgraph.NodeID][]float64 {
	if enc.Pooling == textenc.MaxPooling {
		return nil
	}
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

// add merges o into g: a row g has not touched is copied, one it has is
// summed into — in that order per row, which is the order that fixes the
// bits of the sum.
func (g *sparseGrad) add(o *sparseGrad) {
	for s, id := range o.ids {
		if g.slot[id] < 0 {
			copy(g.row(id), o.at(s))
		} else {
			g.row(id).Add(o.at(s))
		}
	}
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
	arg  []int      // max pooling: per dimension, the position in toks that attains it
	u    vec.Vector // pooled, before normalisation
	norm float64    // ‖u‖
	v    vec.Vector // what the loss sees: u/‖u‖ in unit, or u itself
	unit vec.Vector // backing store of v when the encoder normalises
	g    vec.Vector // ∂L/∂v, then ∂L/∂u
}

func newWorker(enc *textenc.Encoder, cache TokenCache, weights map[hetgraph.NodeID][]float64) *worker {
	w := &worker{enc: enc, cache: cache, weights: weights,
		grad: newSparseGrad(enc.Emb.Rows, enc.Dim), dp: vec.New(enc.Dim), dn: vec.New(enc.Dim)}
	for _, d := range []*pooledDoc{&w.seed, &w.pos, &w.neg} {
		d.u, d.unit, d.g = vec.New(enc.Dim), vec.New(enc.Dim), vec.New(enc.Dim)
		d.arg = make([]int, enc.Dim)
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
	switch {
	case len(d.toks) == 0:
	case w.enc.Pooling == textenc.MaxPooling:
		// Ties go to the earliest token, as in Encoder.PoolArgmax.
		for j, x := range emb.Row(int(d.toks[0])) {
			d.u[j], d.arg[j] = float64(x), 0
		}
		for i, id := range d.toks[1:] {
			for j, x := range emb.Row(int(id)) {
				if float64(x) > d.u[j] {
					d.u[j], d.arg[j] = float64(x), i+1
				}
			}
		}
	default: // MeanPooling, IDF-weighted
		for i, id := range d.toks {
			vec.AxpyInto64(d.u, d.ws[i], emb.Row(int(id)))
		}
	}
	d.norm = d.u.Norm()
	d.v = d.u
	if w.enc.Normalize && d.norm != 0 {
		copy(d.unit, d.u)
		d.v = d.unit.Scale(1 / d.norm)
	}
}

// backward routes d.g, the gradient on the document vector, into token
// rows. Through the normalisation v = u/‖u‖ first: ∂L/∂u = (g - (g·v)v)/‖u‖.
// Then, under mean pooling, every token receives its pooling weight's
// share (∂v_doc/∂row_t = w_t · I); under max pooling each dimension's
// gradient goes solely to the token attaining the maximum there (the
// standard max-pool sub-gradient).
func (w *worker) backward(d *pooledDoc) {
	if len(d.toks) == 0 {
		return
	}
	if w.enc.Normalize && d.norm != 0 {
		d.g.Axpy(-d.g.Dot(d.v), d.v).Scale(1 / d.norm)
	}
	if w.enc.Pooling == textenc.MaxPooling {
		for j, pos := range d.arg {
			w.grad.row(d.toks[pos])[j] += d.g[j]
		}
		return
	}
	for i, id := range d.toks {
		w.grad.row(id).Axpy(d.ws[i], d.g)
	}
}

// tripleGradient accumulates ∂L/∂Θ_B for one triple into w.grad and
// returns the triple's loss L = max(δ(v_s,v+) - δ(v_s,v-) + c, 0).
func (w *worker) tripleGradient(t sampling.Triple, margin float64) float64 {
	s, p, n := &w.seed, &w.pos, &w.neg
	w.forward(s, t.Seed)
	w.forward(p, t.Pos)
	w.forward(n, t.Neg)

	copy(w.dp, s.v)
	copy(w.dn, s.v)
	np := w.dp.Sub(p.v).Norm() // δ(v_s, v_+)
	nn := w.dn.Sub(n.v).Norm() // δ(v_s, v_-)
	loss := np - nn + margin
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
	cfg   Config
	table *vec.Matrix32
	m, v  *vec.Matrix
	tRow  []int // per-row step count for bias correction
}

func newAdam(table *vec.Matrix32, cfg Config) *adam {
	return &adam{
		cfg:   cfg,
		table: table,
		m:     vec.NewMatrix(table.Rows, table.Cols),
		v:     vec.NewMatrix(table.Rows, table.Cols),
		tRow:  make([]int, table.Rows),
	}
}

// step applies one Adam update to every row grads touched, on up to
// GOMAXPROCS goroutines: a row's update reads and writes that row's state
// only, so how the rows are split changes no bit.
func (a *adam) step(grads *sparseGrad) {
	c := a.cfg
	par.Chunks(len(grads.ids), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			r := int(grads.ids[s])
			a.tRow[r]++
			t := float64(a.tRow[r])
			mRow, vRow, w := a.m.Row(r), a.v.Row(r), a.table.Row(r)
			bc1 := 1 - math.Pow(c.Beta1, t)
			bc2 := 1 - math.Pow(c.Beta2, t)
			for j, gj := range grads.at(s) {
				mRow[j] = c.Beta1*mRow[j] + (1-c.Beta1)*gj
				vRow[j] = c.Beta2*vRow[j] + (1-c.Beta2)*gj*gj
				mHat := mRow[j] / bc1
				vHat := vRow[j] / bc2
				w[j] = float32(float64(w[j]) - c.LearningRate*mHat/(math.Sqrt(vHat)+c.Epsilon))
			}
		}
	})
}

// EmbedRows computes the fine-tuned representation of every paper in
// cache, in parallel, into one matrix: ids ascending, row i the embedding
// of ids[i]. Each goroutine fills its own range of rows, so how they are
// split changes no bit. The pair is E in the form the PG-Index adopts
// (pgindex.FromRows).
func EmbedRows(enc *textenc.Encoder, cache TokenCache) ([]hetgraph.NodeID, *vec.Matrix32) {
	ids := make([]hetgraph.NodeID, 0, len(cache))
	for id := range cache {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	rows := vec.NewMatrix32(len(ids), enc.Dim)
	par.Chunks(len(ids), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			copy(rows.Row(i), enc.EncodeTokens(cache[ids[i]]))
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
