package textenc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"unicode/utf8"

	"expertfind/internal/par"
	"expertfind/internal/vec"
)

// Encoder is the document encoder of Eq. 2: Φ_B maps each token to a row of
// a trainable embedding table (the parameters Θ_B), and Φ_P pools the rows
// into the document representation v_p. Φ_P is the IDF-weighted mean of
// the rows scaled to unit L2 norm: §III-C adopts mean pooling for its
// better performance, and the unit norm keeps L2 distances on the scale
// the triplet margin c=1 expects, as sentence-encoder practice does.
//
// A fresh encoder is "pre-trained": every row is deterministically
// initialised from a hash of its token's surface form, so documents
// sharing subwords are already close before any fine-tuning — the
// property the frozen SBERT/SciBERT baselines rely on.
//
// The table is stored in float32 (one contiguous Matrix32): serving-path
// encodes pool rows with the float32 kernels, while the trainer pools
// through EncodeTokensRaw64 in float64 so gradient checks keep full
// precision. Rows are initialised from float64 draws rounded once, so the
// table is independent of which path reads it.
type Encoder struct {
	vocab *Vocab
	tok   *Tokenizer
	Emb   *vec.Matrix32 // token embedding table Θ_B, vocab.Size() x Dim
	Dim   int
	// idf caches per-token IDF weights used by mean pooling.
	idf []float64
}

// NewEncoder returns a pre-trained encoder of dimension dim over vocabulary
// v. seed varies the hash mixing so independent encoders (e.g. per-dataset)
// are decorrelated while each remains fully deterministic.
func NewEncoder(v *Vocab, dim int, seed int64) *Encoder {
	if dim <= 0 {
		panic(fmt.Sprintf("textenc: non-positive dimension %d", dim))
	}
	e := &Encoder{
		vocab: v,
		tok:   NewTokenizer(v),
		Emb:   vec.NewMatrix32(v.Size(), dim),
		Dim:   dim,
		idf:   make([]float64, v.Size()),
	}
	for id := range e.idf {
		e.idf[id] = v.IDF(TokenID(id))
	}
	surfaceRows(e.Emb.Data, v.tokens, dim, seed)
	return e
}

// surfaceRows sets rows, len(tokens) rows of dim floats, to the
// pre-trained vectors of tokens, built FastText-style: the unit mean of
// deterministic hash vectors of the surface form and its character 3- and
// 4-grams. Morphological variants of one stem therefore start out close —
// the sub-lexical "semantic" knowledge a real pre-trained encoder brings,
// which bag-of-words baselines lack. A row accumulates in float64, the
// surface form's vector first and then its n-grams' in order, and rounds
// once into float32.
//
// Tokens share most of their n-grams (about 26 uses per distinct n-gram
// on the benchmark corpora), so each distinct n-gram is hashed once. One
// goroutine numbers the distinct n-grams; then they are hashed into one
// flat table, and the rows filled from it, each pass on up to GOMAXPROCS
// goroutines. A goroutine writes only its own rows, and a hasher's output
// is a function of the string it hashes, so how the work is split changes
// no bit.
func surfaceRows(rows []float32, tokens []string, dim int, seed int64) {
	index := map[string]int32{}
	var grams []string // the distinct n-grams, in order of first use
	var cut ngrams
	for _, tok := range tokens {
		cut.each(tok, func(gram []byte) {
			if _, ok := index[string(gram)]; !ok {
				s := string(gram)
				index[s] = int32(len(grams))
				grams = append(grams, s)
			}
		})
	}

	// Chunk c of either pass hashes with hashers[c]: a source is 4.9 KB
	// and costs as much to create as a string does to hash.
	procs := runtime.GOMAXPROCS(0)
	hashers := make([]hasher, procs)
	hasherOf := func(c int) hasher {
		if hashers[c].rng == nil {
			hashers[c] = newHasher()
		}
		return hashers[c]
	}
	table := make([]float64, len(grams)*dim)
	par.Chunks(len(grams), procs, func(c, lo, hi int) {
		h := hasherOf(c)
		for g := lo; g < hi; g++ {
			h.into(table[g*dim:(g+1)*dim], grams[g], seed)
		}
	})
	par.Chunks(len(tokens), procs, func(c, lo, hi int) {
		h := hasherOf(c)
		acc := vec.New(dim)
		var cut ngrams
		for i := lo; i < hi; i++ {
			h.into(acc, tokens[i], seed) // the exact form always contributes
			cut.each(tokens[i], func(gram []byte) {
				g := int(index[string(gram)])
				acc.Add(table[g*dim : (g+1)*dim])
			})
			acc.Normalize()
			for j, x := range acc {
				rows[i*dim+j] = float32(x)
			}
		}
	})
}

// ngrams cuts tokens into the character n-grams of surfaceRows, keeping
// its scratch from one token to the next.
type ngrams struct {
	runes []rune
	key   []byte
}

// each calls fn with every character 3-gram of the padded surface form
// "<surface>" of tok ("##" stripped), then every 4-gram, as UTF-8 that is
// valid until fn returns. The grams are cut on runes: an undecodable
// byte is one U+FFFD.
func (c *ngrams) each(tok string, fn func(gram []byte)) {
	c.runes = append(c.runes[:0], '<')
	for _, r := range strings.TrimPrefix(tok, "##") {
		c.runes = append(c.runes, r)
	}
	c.runes = append(c.runes, '>')
	for n := 3; n <= 4; n++ {
		for j := 0; j+n <= len(c.runes); j++ {
			c.key = c.key[:0]
			for _, r := range c.runes[j : j+n] {
				c.key = utf8.AppendRune(c.key, r)
			}
			fn(c.key)
		}
	}
}

// PretrainDistributional is PretrainTokens over the tokens of corpus.
//
// Deprecated: pre-train with the token lists of BuildVocabTokens, as the
// engine and the experiments do. PretrainDistributional is kept for
// bench/'s replay of a build; ROADMAP item 1(a) deletes it.
func PretrainDistributional(e *Encoder, corpus []string) {
	e.pretrain(newDocIndex(e, corpus))
}

// PretrainTokens completes the encoder's "pre-training" with a
// random-indexing pass over the corpus, given as every document's tokens
// (docs[d] those of document d, as BuildVocabTokens returns them): every
// document gets a deterministic signature vector, and each token's row
// accumulates the IDF-weighted signatures of the documents containing it.
// Tokens with similar document distributions — synonyms, topic-mates,
// dialect variants — end up with correlated vectors, the distributional
// semantics a real pre-trained language model brings and that
// bag-of-words methods lack. The result is blended equally with the
// character-n-gram initialisation and renormalised; the blend runs in
// float64 and rounds once per component.
//
// It runs in three passes, each on up to GOMAXPROCS goroutines. The first
// two take every document's signature and build an inverted list of each
// token's documents, ascending; the third sums each token's row over its
// list — the order a single pass over the corpus adds them in — so a row
// is the same however the rows are split.
func PretrainTokens(e *Encoder, docs [][]TokenID) {
	e.pretrain(indexDocs(e, docs))
}

func (e *Encoder) pretrain(ix *docIndex) {
	par.Chunks(e.vocab.Size(), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		dist, blend := vec.New(e.Dim), vec.New(e.Dim)
		for id := lo; id < hi; id++ {
			if !ix.sum(dist, id, e.idf[id]) || dist.Norm() == 0 {
				continue // token unseen in corpus: keep the n-gram prior
			}
			dist.Normalize()
			row := e.Emb.Row(id)
			for j, x := range row {
				blend[j] = float64(x)
			}
			blend.Scale(0.5).Axpy(0.5, dist).Normalize()
			for j := range row {
				row[j] = float32(blend[j])
			}
		}
	})
}

// docIndex is the first pass of PretrainTokens: every document's
// signature, and for every token the documents containing it.
type docIndex struct {
	dim  int
	sigs []float64 // document d's signature is sigs[d*dim:(d+1)*dim]
	// docs[start[t]:start[t+1]] are the documents containing token t,
	// ascending.
	start, docs []int32
}

// newDocIndex is indexDocs over the tokens of corpus.
func newDocIndex(e *Encoder, corpus []string) *docIndex {
	docs := make([][]TokenID, len(corpus))
	par.Chunks(len(corpus), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for d := lo; d < hi; d++ {
			docs[d] = e.tok.Tokenize(corpus[d])
		}
	})
	return indexDocs(e, docs)
}

// indexDocs builds the docIndex of docs in two passes over contiguous
// chunks of documents. The first takes the chunk's signatures and counts
// the chunk's documents holding each token; the counts place each chunk's
// part of a token's list after the parts of the chunks before it, and the
// second pass writes the parts, so every list ascends.
func indexDocs(e *Encoder, docs [][]TokenID) *docIndex {
	dim, size := e.Dim, e.vocab.Size()
	procs := runtime.GOMAXPROCS(0)
	ix := &docIndex{dim: dim, sigs: make([]float64, len(docs)*dim), start: make([]int32, size+1)}
	// each calls fn(d, t) for every distinct token t of every document d
	// of [lo,hi), in order of first occurrence.
	each := func(lo, hi int, fn func(d int, t TokenID)) {
		// countedIn[t] is the last document (1-based) that listed token t.
		countedIn := make([]int, size)
		for d := lo; d < hi; d++ {
			for _, id := range docs[d] {
				if countedIn[id] != d+1 {
					countedIn[id] = d + 1
					fn(d, id)
				}
			}
		}
	}
	// at[c][t] counts chunk c's documents holding token t, then is where
	// the chunk writes the next of them.
	at := make([][]int32, procs)
	par.Chunks(len(docs), procs, func(c, lo, hi int) {
		hash := newHasher()
		key := []byte("doc|") // document d's signature hashes "doc|<d>"
		for d := lo; d < hi; d++ {
			key = strconv.AppendInt(key[:4], int64(d), 10)
			hash.fill(ix.sigs[d*dim:(d+1)*dim], fnv64a(key), 0x3779B97F4A7C15)
		}
		n := make([]int32, size)
		each(lo, hi, func(_ int, t TokenID) { n[t]++ })
		at[c] = n
	})
	for t := 0; t < size; t++ {
		next := ix.start[t]
		for _, n := range at {
			if n != nil {
				n[t], next = next, next+n[t]
			}
		}
		ix.start[t+1] = next
	}
	ix.docs = make([]int32, ix.start[size])
	par.Chunks(len(docs), procs, func(c, lo, hi int) {
		next := at[c]
		each(lo, hi, func(d int, t TokenID) {
			ix.docs[next[t]] = int32(d)
			next[t]++
		})
	})
	return ix
}

// sum sets dist to the signatures of the documents containing token id,
// each weighted by idf and added in document order, and reports whether
// there are any.
func (ix *docIndex) sum(dist vec.Vector, id int, idf float64) bool {
	dist.Zero()
	for _, d := range ix.docs[ix.start[id]:ix.start[id+1]] {
		dist.Axpy(idf, ix.sigs[int(d)*ix.dim:(int(d)+1)*ix.dim])
	}
	return ix.start[id] < ix.start[id+1]
}

// SurfaceVector returns the deterministic stem-aware vector of a surface
// form: the same character-n-gram construction the encoder's rows start
// from. Baselines that simulate corpus-trained word embeddings share it so
// that methods differ in how they use structure, not in lexical capability.
func SurfaceVector(dim int, s string, seed int64) vec.Vec32 {
	row := vec.New32(dim)
	surfaceRows(row, []string{s}, dim, seed)
	return row
}

// hasher draws the deterministic Gaussian hash vectors the pre-trained
// state is made of: the vector of s is the stream of the math/rand source
// seeded with FNV-1a(s) ^ seed. It owns one source and re-seeds it per
// string — Seed(x) leaves the state NewSource(x) starts in — because a
// source is 4.9 KB and a table initialisation hashes some 10^5 strings.
type hasher struct{ rng *rand.Rand }

func newHasher() hasher { return hasher{rand.New(rand.NewSource(0))} }

// into fills dst with the hash vector of s.
func (h hasher) into(dst vec.Vector, s string, seed int64) { h.fill(dst, fnv64a(s), seed) }

// fill fills dst with the hash vector of the string whose FNV-1a is sum.
func (h hasher) fill(dst vec.Vector, sum uint64, seed int64) {
	h.rng.Seed(int64(sum) ^ seed)
	sigma := 1 / math.Sqrt(float64(len(dst)))
	for j := range dst {
		dst[j] = h.rng.NormFloat64() * sigma
	}
}

// fnv64a is hash/fnv's 64-bit FNV-1a of s, taken without copying a
// string into a []byte.
func fnv64a[S string | []byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Tokenizer returns the encoder's tokenizer.
func (e *Encoder) Tokenizer() *Tokenizer { return e.tok }

// Vocab returns the encoder's vocabulary.
func (e *Encoder) Vocab() *Vocab { return e.vocab }

// Encode maps a document's text to its representation v_p (Eq. 2).
func (e *Encoder) Encode(text string) vec.Vec32 {
	return e.EncodeTokens(e.tok.Tokenize(text))
}

// EncodeTokens pools the embedding rows of ids into a unit document
// vector. An empty token list yields the zero vector.
func (e *Encoder) EncodeTokens(ids []TokenID) vec.Vec32 {
	return e.EncodeTokensRaw(ids).Normalize()
}

// EncodeTokensRaw pools without the final normalisation, entirely in
// float32 — the serving path.
func (e *Encoder) EncodeTokensRaw(ids []TokenID) vec.Vec32 {
	out := vec.New32(e.Dim)
	if len(ids) > 0 {
		e.pool(out, ids, nil)
	}
	return out
}

// EncodeTokensInto is EncodeTokens into dst, a row of Dim floats, with ws
// as scratch for the pool weights. It returns the scratch, grown if it
// was short, for the next call, so a loop over many documents allocates
// nothing per document.
func (e *Encoder) EncodeTokensInto(dst vec.Vec32, ids []TokenID, ws []float64) []float64 {
	dst.Zero()
	ws = e.pool(dst, ids, ws)
	dst.Normalize()
	return ws
}

// pool adds the rows of ids, weighted by PoolWeights in float32, to dst,
// computing the weights into ws, and returns ws.
func (e *Encoder) pool(dst vec.Vec32, ids []TokenID, ws []float64) []float64 {
	ws = e.poolWeights(ws, ids)
	for i, id := range ids {
		dst.Axpy(float32(ws[i]), e.Emb.Row(int(id)))
	}
	return ws
}

// EncodeTokensRaw64 pools the float32 rows with float64 accumulation and
// no final normalisation — the trainer's forward pass, where the numerical
// gradient check needs more resolution than float32 partial sums give.
func (e *Encoder) EncodeTokensRaw64(ids []TokenID) vec.Vector {
	out := vec.New(e.Dim)
	if len(ids) == 0 {
		return out
	}
	ws := e.PoolWeights(ids)
	for i, id := range ids {
		vec.AxpyInto64(out, ws[i], e.Emb.Row(int(id)))
	}
	return out
}

// PoolWeights returns the normalised per-token weights mean pooling applies
// to ids — the same coefficients the trainer uses to route the document
// gradient back into individual embedding rows (∂v_p/∂Θ_B rows).
func (e *Encoder) PoolWeights(ids []TokenID) []float64 {
	return e.poolWeights(nil, ids)
}

// poolWeights is PoolWeights into ws, grown if it is short.
func (e *Encoder) poolWeights(ws []float64, ids []TokenID) []float64 {
	if cap(ws) < len(ids) {
		ws = make([]float64, len(ids))
	}
	ws = ws[:len(ids)]
	var total float64
	for i, id := range ids {
		w := 1.0
		if int(id) < len(e.idf) {
			w = e.idf[id]
		}
		ws[i] = w
		total += w
	}
	if total == 0 {
		total = 1
	}
	for i := range ws {
		ws[i] /= total
	}
	return ws
}

// Clone returns a deep copy of the encoder sharing the vocabulary but with
// an independent embedding table, so fine-tuning one copy leaves the
// pre-trained encoder intact (the "w/o (k,P)-core" ablation needs both).
func (e *Encoder) Clone() *Encoder {
	c := *e
	c.Emb = e.Emb.Clone()
	return &c
}

// NumParameters returns the number of trainable parameters in Θ_B.
func (e *Encoder) NumParameters() int { return len(e.Emb.Data) }

// NewEncoderWithTable builds an encoder over v whose embedding table is
// the given row-major weight data (vocab.Size() x dim) — the restore path
// for a fine-tuned Θ_B saved to disk. The encoder adopts data as its table
// (no copy), so a table saved from Emb.Data restores bit-identically.
func NewEncoderWithTable(v *Vocab, dim int, data []float32) (*Encoder, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("textenc: non-positive dimension %d", dim)
	}
	emb, err := vec.Matrix32Of(v.Size(), dim, data)
	if err != nil {
		return nil, fmt.Errorf("textenc: table has %d weights for %d tokens x %d dims: %w",
			len(data), v.Size(), dim, err)
	}
	e := &Encoder{
		vocab: v,
		tok:   NewTokenizer(v),
		Emb:   emb,
		Dim:   dim,
		idf:   make([]float64, v.Size()),
	}
	for id := 0; id < v.Size(); id++ {
		e.idf[id] = v.IDF(TokenID(id))
	}
	return e, nil
}
