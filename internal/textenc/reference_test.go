package textenc

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unicode"

	"expertfind/internal/vec"
)

// The functions below are the vocabulary induction and pre-training as
// they stood before PR 18 made them fast, frozen here as the reference the
// fast versions must reproduce bit for bit: one math/rand source per
// hashed string, no n-gram memo, pieces counted per word occurrence, every
// character of the corpus offered to the vocabulary.

func refHashInto(dst vec.Vector, s string, seed int64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	rng := rand.New(rand.NewSource(int64(h.Sum64()) ^ seed))
	sigma := 1 / math.Sqrt(float64(len(dst)))
	for j := range dst {
		dst[j] = rng.NormFloat64() * sigma
	}
}

func refInitTokenRow(row vec.Vec32, token string, seed int64) {
	acc := vec.New(len(row))
	surface := strings.TrimPrefix(token, "##")
	padded := "<" + surface + ">"
	refHashInto(acc, token, seed)
	r := []rune(padded)
	tmp := vec.New(len(row))
	for n := 3; n <= 4; n++ {
		for i := 0; i+n <= len(r); i++ {
			refHashInto(tmp.Zero(), string(r[i:i+n]), seed)
			acc.Add(tmp)
		}
	}
	acc.Normalize()
	for j := range row {
		row[j] = float32(acc[j])
	}
}

func refPretrainDistributional(e *Encoder, corpus []string) {
	acc := refDistributions(e, corpus)
	for id := 0; id < e.vocab.Size(); id++ {
		dist := acc.Row(id)
		if dist.Norm() == 0 {
			continue
		}
		dist.Normalize()
		row := e.Emb.Row(id)
		blend := vec.New(len(row))
		for j, x := range row {
			blend[j] = float64(x)
		}
		blend.Scale(0.5).Axpy(0.5, dist).Normalize()
		for j := range row {
			row[j] = float32(blend[j])
		}
	}
}

// refDistributions returns every token's IDF-weighted sum of the
// signatures of the documents containing it, before normalisation.
func refDistributions(e *Encoder, corpus []string) *vec.Matrix {
	acc := vec.NewMatrix(e.vocab.Size(), e.Dim)
	sig := vec.New(e.Dim)
	seen := map[TokenID]bool{}
	for d, doc := range corpus {
		refHashInto(sig, fmt.Sprintf("doc|%d", d), 0x3779B97F4A7C15)
		clear(seen)
		for _, id := range e.tok.Tokenize(doc) {
			if seen[id] {
				continue
			}
			seen[id] = true
			acc.Row(int(id)).Axpy(e.idf[id], sig)
		}
	}
	return acc
}

// piecesOf returns the WordPiece candidate pieces of a word: prefixes of
// length 2-6 and continuation pieces ("##"+substring) of length 2-4.
func piecesOf(w string) []string {
	r := []rune(w)
	var out []string
	for l := 2; l <= 6 && l <= len(r); l++ {
		out = append(out, string(r[:l]))
	}
	for start := 1; start < len(r); start++ {
		for l := 2; l <= 4 && start+l <= len(r); l++ {
			out = append(out, "##"+string(r[start:start+l]))
		}
	}
	return out
}

func refBuildVocab(corpus []string, cfg VocabConfig) *Vocab {
	if cfg.MaxWords <= 0 {
		cfg.MaxWords = DefaultVocabConfig().MaxWords
	}
	if cfg.MaxSubwords <= 0 {
		cfg.MaxSubwords = DefaultVocabConfig().MaxSubwords
	}
	if cfg.MinWordFreq <= 0 {
		cfg.MinWordFreq = 1
	}
	wordFreq := map[string]int{}
	subFreq := map[string]int{}
	for _, doc := range corpus {
		for _, w := range SplitWords(doc) {
			wordFreq[w]++
			for _, piece := range piecesOf(w) {
				subFreq[piece]++
			}
		}
	}
	v := &Vocab{}
	v.add("[UNK]")
	for _, w := range topK(wordFreq, cfg.MaxWords, cfg.MinWordFreq) {
		v.add(w)
	}
	for _, doc := range corpus {
		for _, r := range strings.ToLower(doc) {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				v.add(string(r))
				v.add("##" + string(r))
			}
		}
	}
	for _, s := range topK(subFreq, cfg.MaxSubwords, 1) {
		v.add(s)
	}
	v.docFreq = make([]int, len(v.tokens))
	tk := &Tokenizer{vocab: v, maxLen: 1 << 30}
	seen := map[TokenID]bool{}
	for _, doc := range corpus {
		clear(seen)
		for _, id := range tk.Tokenize(doc) {
			if !seen[id] {
				seen[id] = true
				v.docFreq[id]++
			}
		}
		v.numDocs++
	}
	return v
}

// referenceCorpora are the texts both equivalence tests run over: plain
// lower-case ASCII, mixed case (case folding changes which characters and
// words exist), and multi-byte scripts with characters that lower-case
// into ASCII or fail to decode.
func referenceCorpora() map[string][]string {
	return map[string][]string{
		"ascii": smallCorpus(),
		"upper-case": {
			"Community Search over LARGE Graphs",
			"COMMUNITY detection in Heterogeneous graphs; a Survey (2nd ed.)",
			"zzz Neural NETWORK Embedding for Graphs QQQ",
		},
		"multi-byte": {
			"Überraschung: naïve Bayes für Café-Empfehlungen",
			"图神经网络 用于 专家发现 与 图神经网络",
			"Поиск экспертов в ГЕТЕРОГЕННЫХ графах",
			"İstanbul Kelvin scale \xff\xfe broken bytes and ǅ titlecase",
		},
	}
}

// TestBuildVocabMatchesPerOccurrenceCount holds the one scan's chunked
// counts to the reference's one pass, and its token lists to Tokenize, at
// GOMAXPROCS 4. The "long" corpus has documents past MaxSequenceLength
// tokens, cut inside a word that segments into pieces: it is the one
// check that catches document frequencies counted over the cut lists
// instead of every token of the document.
func TestBuildVocabMatchesPerOccurrenceCount(t *testing.T) {
	corpora := referenceCorpora()
	var long strings.Builder
	for i := range 700 {
		fmt.Fprintf(&long, "Graph%d ", i*7919)
	}
	corpora["long"] = []string{long.String(), strings.Repeat("searching GRAPHS ", 600), "a short one"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for name, corpus := range corpora {
		for _, cfg := range []VocabConfig{{}, {MaxWords: 40, MaxSubwords: 60, MinWordFreq: 2}} {
			got, docs := BuildVocabTokens(corpus, cfg)
			checkVocab(t, fmt.Sprintf("%s %+v", name, cfg), corpus, got, docs, refBuildVocab(corpus, cfg))
		}
	}
}

// checkVocab fails t unless got has want's tokens and document
// frequencies and docs[d] is Tokenize(corpus[d]) under got.
func checkVocab(t *testing.T, what string, corpus []string, got *Vocab, docs [][]TokenID, want *Vocab) {
	t.Helper()
	if !slices.Equal(got.tokens, want.tokens) {
		t.Fatalf("%s: token list differs from the per-occurrence count's (%d vs %d tokens)",
			what, len(got.tokens), len(want.tokens))
	}
	if !slices.Equal(got.docFreq, want.docFreq) || got.numDocs != want.numDocs {
		t.Fatalf("%s: document frequencies differ", what)
	}
	if len(docs) != len(corpus) {
		t.Fatalf("%s: %d token lists for %d documents", what, len(docs), len(corpus))
	}
	tk := NewTokenizer(got)
	for d, doc := range corpus {
		if want := tk.Tokenize(doc); !slices.Equal(docs[d], want) {
			t.Fatalf("%s: document %d has %d tokens from the scan, Tokenize gives %d", what, d, len(docs[d]), len(want))
		}
	}
}

// TestNewEncoderMatchesUnmemoised holds the memoised, parallel
// pre-training to the reference's one source per string, at GOMAXPROCS 4
// and one dimension. It is the one check that catches two faults of the
// code it guards: the chunks' parts of the inverted lists placed in
// reverse chunk order, which sums a token's signatures in another float64
// order that the float32 table rounds away (its distribution check), and
// n-grams cut on bytes instead of runes (the multi-byte corpus, and
// SurfaceVector of undecodable bytes). The counts ledger, the golden
// tests and the Examples pass under both.
func TestNewEncoderMatchesUnmemoised(t *testing.T) {
	sameTable := func(what string, got, want *vec.Matrix32) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: row %d dim %d is %x, the reference has %x", what, i/want.Cols, i%want.Cols,
					math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const dim, seed = 12, 7
	for name, corpus := range referenceCorpora() {
		v, docs := BuildVocabTokens(corpus, VocabConfig{})
		got := NewEncoder(v, dim, seed)
		want := cloneEncoder(got)
		for id := 0; id < v.Size(); id++ {
			refInitTokenRow(want.Emb.Row(id), v.Token(TokenID(id)), seed)
		}
		sameTable(name+": NewEncoder", got.Emb, want.Emb)

		// The float32 table rounds away most float64 sum orders, so the
		// rows' sums are held to the reference's before it.
		ix, wantDist := indexDocs(got, docs), refDistributions(got, corpus)
		dist := vec.New(dim)
		for id := 0; id < v.Size(); id++ {
			ix.sum(dist, id, got.idf[id])
			for j, x := range wantDist.Row(id) {
				if math.Float64bits(dist[j]) != math.Float64bits(x) {
					t.Fatalf("%s: token %d's distribution dim %d is %x, the reference has %x",
						name, id, j, math.Float64bits(dist[j]), math.Float64bits(x))
				}
			}
		}
		PretrainTokens(got, docs)
		refPretrainDistributional(want, corpus)
		sameTable(name+": PretrainTokens", got.Emb, want.Emb)

		// Baselines hand SurfaceVector arbitrary strings, undecodable bytes
		// included (n-grams are cut on runes, not bytes).
		for _, word := range []string{v.Token(TokenID(v.Size() / 2)), "ab\xffcd\xc3", ""} {
			one := vec.New32(dim)
			refInitTokenRow(one, word, seed)
			if !slices.Equal(SurfaceVector(dim, word, seed), one) {
				t.Fatalf("%s: SurfaceVector(%q) differs from the reference", name, word)
			}
		}
	}
}
