// Package textenc implements the document encoder of §III-C as a
// stdlib-only substitute for SciBERT: a WordPiece-style subword tokenizer
// whose vocabulary is induced from the corpus, a trainable token-embedding
// table deterministically initialised from token hashes (the "pre-trained"
// state, a Johnson-Lindenstrauss sketch of the bag-of-subwords space), IDF
// token weighting, and the paper's IDF-weighted mean pooling Φ_P (Eq. 2).
//
// The table's rows are the parameters Θ_B that the triplet-loss fine-tuning
// of internal/train updates, mirroring how the paper fine-tunes SciBERT's
// weights. See DESIGN.md for why this substitution preserves the behaviours
// the paper studies.
package textenc

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"expertfind/internal/par"
)

// TokenID indexes a token in a Vocab. The zero value is the unknown token.
type TokenID int32

// UnknownToken is the id reserved for out-of-vocabulary pieces that cannot
// be segmented.
const UnknownToken TokenID = 0

// Vocab is a WordPiece-style vocabulary: whole words plus "##"-prefixed
// continuation subwords, induced from a corpus.
type Vocab struct {
	tokens []string
	// table finds a token by its surface, and a "##"-continuation token
	// also by its surface without the prefix (tokentable.go).
	table tokenTable
	// docFreq[t] counts the corpus documents containing token t at build
	// time; the encoder turns it into IDF weights.
	docFreq []int
	numDocs int
}

// VocabConfig controls vocabulary induction.
type VocabConfig struct {
	// MaxWords caps the number of whole-word tokens (most frequent first).
	MaxWords int
	// MaxSubwords caps the number of continuation subwords.
	MaxSubwords int
	// MinWordFreq drops words rarer than this from the whole-word set.
	MinWordFreq int
}

// DefaultVocabConfig returns the configuration used by the experiments.
func DefaultVocabConfig() VocabConfig {
	return VocabConfig{MaxWords: 20000, MaxSubwords: 4000, MinWordFreq: 2}
}

// BuildVocab is BuildVocabTokens without the token lists.
//
// Deprecated: build the vocabulary with BuildVocabTokens, as the engine
// and the experiments do. BuildVocab is kept for bench/'s replay of a
// build; ROADMAP item 1(a) deletes it.
func BuildVocab(corpus []string, cfg VocabConfig) *Vocab {
	v, _ := BuildVocabTokens(corpus, cfg)
	return v
}

// BuildVocabTokens induces a vocabulary from the corpus: the most frequent
// words become whole-word tokens; character pieces (prefix pieces and
// "##"-continuations of length 1-4 from all words) fill the subword budget
// so any word segments greedily without hitting UnknownToken in practice.
// It also returns every document's tokens, docs[d] equal to
// Tokenize(corpus[d]) under the vocabulary's tokenizer (truncated at
// MaxSequenceLength), from the one scan of the corpus the vocabulary is
// induced from. A build hands the lists to PretrainTokens and the
// trainer's token cache, so no text is tokenised twice.
func BuildVocabTokens(corpus []string, cfg VocabConfig) (v *Vocab, docs [][]TokenID) {
	if cfg.MaxWords <= 0 {
		cfg.MaxWords = DefaultVocabConfig().MaxWords
	}
	if cfg.MaxSubwords <= 0 {
		cfg.MaxSubwords = DefaultVocabConfig().MaxSubwords
	}
	if cfg.MinWordFreq <= 0 {
		cfg.MinWordFreq = 1
	}

	// Every pass runs on up to GOMAXPROCS goroutines, each over a
	// contiguous chunk of documents (or of distinct words). Counts are
	// integers, so summing the chunks' counts gives the same bits in any
	// order, and the lists built here — the distinct words and the
	// characters, each in order of first appearance — are merged in chunk
	// order.
	procs := runtime.GOMAXPROCS(0)
	sc := scanWords(corpus, procs)
	words, wordFreq := sc.words, sc.freq

	// Candidate pieces — prefixes of 2-6 runes and ## continuations of 2-4
	// — are a function of the word, so each distinct word is cut up once
	// and its pieces counted at the word's frequency. A piece is counted
	// under a substring of its word, continuations without their "##", so
	// only a piece new to its chunk costs a string.
	subFreq := countChunks(len(words), procs, func(freq map[string]int, i int) {
		w := words[i]
		var buf [32]int
		offs := appendRuneOffsets(buf[:0], bytesOf(w))
		for l := 2; l <= 6 && l < len(offs); l++ {
			freq[w[:offs[l]]] += wordFreq[i]
		}
	})
	contFreq := countChunks(len(words), procs, func(freq map[string]int, i int) {
		w := words[i]
		var buf [32]int
		offs := appendRuneOffsets(buf[:0], bytesOf(w))
		nr := len(offs) - 1
		for start := 1; start < nr; start++ {
			for l := 2; l <= 4 && start+l <= nr; l++ {
				freq[w[offs[start]:offs[start+l]]] += wordFreq[i]
			}
		}
	})
	for s, f := range contFreq {
		subFreq["##"+s] = f // no prefix starts with '#', so no key collides
	}

	v = &Vocab{}
	v.add("[UNK]") // id 0

	// Whole words by descending frequency, ties broken lexically.
	for _, w := range topWords(words, wordFreq, cfg.MaxWords, cfg.MinWordFreq) {
		v.add(w)
	}
	// Always include every single character (as both start and
	// continuation piece) so segmentation can't fail on known alphabets.
	// Ids follow first appearance in the corpus. A word is a run of
	// letters and digits, lower-cased (and lower-casing keeps a rune a
	// letter or digit, or not), so every character is in some word, and
	// it first appears in the first occurrence of the first word holding
	// it: the characters of the distinct words, in their order of first
	// use, are the corpus's in order of first appearance.
	var seenASCII [utf8.RuneSelf]bool
	seenWide := map[rune]bool{}
	for _, w := range words {
		for _, r := range w {
			if r < utf8.RuneSelf {
				if seenASCII[r] {
					continue
				}
				seenASCII[r] = true
			} else {
				if seenWide[r] {
					continue
				}
				seenWide[r] = true
			}
			v.add(string(r))
			v.add("##" + string(r))
		}
	}
	for _, s := range topK(subFreq, cfg.MaxSubwords, 1) {
		v.add(s)
	}

	// Each distinct word is segmented once; a document's tokens are its
	// words' tokens in order, and give its document frequencies (counted
	// over all of them, as Tokenize without its cap would list them).
	wordToks := segmentWords(&Tokenizer{vocab: v}, words, procs)
	docs = make([][]TokenID, len(corpus))
	dfs := make([][]int, procs)
	// The grid of scanWords: chunk c is the documents sc.chunks[c] holds.
	par.Chunks(len(corpus), procs, func(c, lo, hi int) {
		dfs[c] = sc.chunks[c].tokens(docs[lo:hi], wordToks, v.Size(), lo)
	})
	v.docFreq = make([]int, len(v.tokens))
	for _, df := range dfs {
		for id, n := range df {
			v.docFreq[id] += n
		}
	}
	v.numDocs = len(corpus)
	return v, docs
}

// wordScan is the one pass over the corpus's text: its distinct words in
// order of first appearance with their frequencies, and every document
// as a sequence of word ids.
type wordScan struct {
	words  []string
	freq   []int
	chunks []docWords // one per chunk of documents
}

// docWords is one chunk of documents as word ids: the chunk numbers its
// distinct words in order of first use, and the merge maps those numbers
// to the corpus's.
type docWords struct {
	words []string // the chunk's distinct words, in order of first use
	count []int    // count[i] is the occurrences of words[i] in the chunk
	seq   []int32  // the chunk's documents' words as chunk ids, one after another
	ends  []int32  // document lo+j's words end at seq[ends[j]]
	ids   []int32  // ids[i] is words[i]'s id in the corpus
}

// scanWords splits every document of corpus into words once, in
// contiguous chunks on up to procs goroutines, and merges the chunks'
// numberings in chunk order, so a word's id is its rank in order of first
// appearance in the corpus.
func scanWords(corpus []string, procs int) *wordScan {
	sc := &wordScan{chunks: make([]docWords, procs)}
	par.Chunks(len(corpus), procs, func(c, lo, hi int) {
		ch := &sc.chunks[c]
		local := map[string]int32{}
		ch.ends = make([]int32, 0, hi-lo)
		for _, doc := range corpus[lo:hi] {
			forEachWord(doc, func(w []byte) bool {
				id, ok := local[string(w)]
				if !ok {
					id = int32(len(ch.words))
					word := string(w)
					local[word] = id
					ch.words = append(ch.words, word)
					ch.count = append(ch.count, 0)
				}
				ch.count[id]++
				ch.seq = append(ch.seq, id)
				return true
			})
			ch.ends = append(ch.ends, int32(len(ch.seq)))
		}
	})
	index := map[string]int32{}
	for c := range sc.chunks {
		ch := &sc.chunks[c]
		ch.ids = make([]int32, len(ch.words))
		for i, w := range ch.words {
			id, ok := index[w]
			if !ok {
				id = int32(len(sc.words))
				index[w] = id
				sc.words = append(sc.words, w)
				sc.freq = append(sc.freq, 0)
			}
			sc.freq[id] += ch.count[i]
			ch.ids[i] = id
		}
	}
	return sc
}

// segmentWords returns every word's tokens under tk, on up to procs
// goroutines, each chunk of words into one array of its own: the
// tokenizer's segmentation, through the same token table.
func segmentWords(tk *Tokenizer, words []string, procs int) [][]TokenID {
	toks := make([][]TokenID, len(words))
	par.Chunks(len(words), procs, func(_, lo, hi int) {
		var flat []TokenID
		var offs []int
		ends := make([]int, hi-lo)
		for i := lo; i < hi; i++ {
			flat = tk.appendWord(flat, bytesOf(words[i]), &offs)
			ends[i-lo] = len(flat)
		}
		start := 0
		for i, end := range ends {
			toks[lo+i] = flat[start:end:end]
			start = end
		}
	})
	return toks
}

// tokens sets docs[j] to the tokens of the chunk's document j, the
// concatenation of its words' tokens cut at MaxSequenceLength, all in one
// array, and returns how many of the chunk's documents hold each of the
// size tokens. first is the corpus index of the chunk's first document.
func (ch *docWords) tokens(docs [][]TokenID, wordToks [][]TokenID, size, first int) []int {
	n, start := 0, int32(0)
	for _, end := range ch.ends {
		l := 0
		for _, w := range ch.seq[start:end] {
			l += len(wordToks[ch.ids[w]])
		}
		n += min(l, MaxSequenceLength)
		start = end
	}
	flat := make([]TokenID, 0, n)
	df := make([]int, size)
	// countedIn[t] is the last document (1-based) that counted token t.
	countedIn := make([]int, size)
	start = 0
	for j, end := range ch.ends {
		from := len(flat)
		for _, w := range ch.seq[start:end] {
			toks := wordToks[ch.ids[w]]
			for _, id := range toks {
				if countedIn[id] != first+j+1 {
					countedIn[id] = first + j + 1
					df[id]++
				}
			}
			flat = append(flat, toks[:min(len(toks), from+MaxSequenceLength-len(flat))]...)
		}
		docs[j] = flat[from:len(flat):len(flat)]
		start = end
	}
	return df
}

// countChunks calls count(freq, i) for every i in [0,n), on up to procs
// goroutines that each count a contiguous chunk into a map of their own,
// and returns the sum of the maps.
func countChunks(n, procs int, count func(freq map[string]int, i int)) map[string]int {
	parts := make([]map[string]int, procs)
	par.Chunks(n, procs, func(c, lo, hi int) {
		freq := map[string]int{}
		for i := lo; i < hi; i++ {
			count(freq, i)
		}
		parts[c] = freq
	})
	total := parts[0]
	if total == nil {
		return map[string]int{}
	}
	for _, part := range parts[1:] {
		for k, f := range part {
			total[k] += f
		}
	}
	return total
}

// appendRuneOffsets appends to offs the byte offset of every rune of w,
// then len(w); an undecodable byte is a rune of its own.
func appendRuneOffsets(offs []int, w []byte) []int {
	for i := 0; i < len(w); {
		offs = append(offs, i)
		if w[i] < utf8.RuneSelf {
			i++
			continue
		}
		_, sz := utf8.DecodeRune(w[i:])
		i += sz
	}
	return append(offs, len(w))
}

// topK is topWords over the keys of freq.
func topK(freq map[string]int, k, minFreq int) []string {
	words, counts := make([]string, 0, len(freq)), make([]int, 0, len(freq))
	for w, f := range freq {
		words = append(words, w)
		counts = append(counts, f)
	}
	return topWords(words, counts, k, minFreq)
}

// topWords returns the at most k of words whose frequency (freq[i] that
// of words[i]) is at least minFreq, by descending frequency, ties broken
// lexically.
func topWords(words []string, freq []int, k, minFreq int) []string {
	type wf struct {
		w string
		f int
	}
	all := make([]wf, 0, len(words))
	for i, w := range words {
		if freq[i] >= minFreq {
			all = append(all, wf{w, freq[i]})
		}
	}
	slices.SortFunc(all, func(a, b wf) int {
		if c := cmp.Compare(b.f, a.f); c != 0 {
			return c
		}
		return strings.Compare(a.w, b.w)
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]string, len(all))
	for i, x := range all {
		out[i] = x.w
	}
	return out
}

func (v *Vocab) add(tok string) TokenID {
	if id, ok := v.ID(tok); ok {
		return id
	}
	id := TokenID(len(v.tokens))
	v.tokens = append(v.tokens, tok)
	v.table.insert(bytesOf(tok), wholeKey, id, v.tokens)
	if strings.HasPrefix(tok, "##") {
		v.table.insert(bytesOf(tok[2:]), contKey, id, v.tokens)
	}
	return id
}

// Size returns the number of tokens in the vocabulary.
func (v *Vocab) Size() int { return len(v.tokens) }

// Token returns the surface form of id.
func (v *Vocab) Token(id TokenID) string { return v.tokens[id] }

// ID returns the id of tok and whether it is in the vocabulary.
func (v *Vocab) ID(tok string) (TokenID, bool) {
	return v.table.find(bytesOf(tok), wholeKey, v.tokens)
}

// IDF returns the inverse document frequency weight of id, computed as
// ln(1 + N/(1+df)). Tokens never seen at build time get the maximum weight.
func (v *Vocab) IDF(id TokenID) float64 {
	if v.numDocs == 0 {
		return 1
	}
	df := 0
	if int(id) < len(v.docFreq) {
		df = v.docFreq[id]
	}
	return logIDF(v.numDocs, df)
}

// SplitWords lower-cases text and splits it into maximal runs of letters
// and digits — the pre-tokenisation step shared by the tokenizer and the
// lexical baselines (TFIDF, Avg.GloVe-sim).
func SplitWords(text string) []string {
	var words []string
	forEachWord(text, func(w []byte) bool {
		words = append(words, string(w))
		return true
	})
	return words
}

// forEachWord calls fn with every word of SplitWords, in one buffer that
// is valid until fn returns, until fn returns false.
func forEachWord(text string, fn func(w []byte) bool) {
	var buf []byte
	for i := 0; ; {
		buf, i = nextWord(text, i, buf[:0])
		if len(buf) == 0 || !fn(buf) {
			return
		}
	}
}

// nextWord appends to buf the first word of text at or after byte i —
// a maximal run of letters and digits, lower-cased — and returns buf and
// the byte after the word; buf comes back as it was when no word is
// left. It finds and lower-cases the word in one scan: wordByte answers
// for every ASCII byte, and only a byte of a multi-byte rune costs a
// decode and a Unicode table lookup.
func nextWord(text string, i int, buf []byte) ([]byte, int) {
	n := len(text)
	for i < n {
		c := wordByte[text[i]]
		if c == 0 {
			i++
			continue
		}
		if c == runeByte {
			if r, sz := utf8.DecodeRuneInString(text[i:]); !isWordRune(r) {
				i += sz
				continue
			}
		}
		break
	}
	for i < n {
		c := wordByte[text[i]]
		if c == 0 {
			break
		}
		if c != runeByte {
			buf = append(buf, c)
			i++
			continue
		}
		r, sz := utf8.DecodeRuneInString(text[i:])
		if !isWordRune(r) {
			break
		}
		buf = utf8.AppendRune(buf, unicode.ToLower(r))
		i += sz
	}
	return buf, i
}

// runeByte is wordByte's answer for a byte of a multi-byte rune.
const runeByte = 0x80

// wordByte maps an ASCII letter or digit to its lower-case form, every
// other ASCII byte to 0 (a separator), and every byte from 0x80 up to
// runeByte.
var wordByte = func() (t [256]byte) {
	for c := range t {
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
			t[c] = byte(c)
		case 'A' <= c && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		case c >= utf8.RuneSelf:
			t[c] = runeByte
		}
	}
	return t
}()

func isWordRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// NumDocs returns the number of corpus documents seen at build time.
func (v *Vocab) NumDocs() int { return v.numDocs }

// DocFreq returns the document frequency of id recorded at build time.
func (v *Vocab) DocFreq(id TokenID) int {
	if int(id) < len(v.docFreq) {
		return v.docFreq[id]
	}
	return 0
}

// NewVocabFromTokens reconstructs a vocabulary from its serialised parts:
// the token list in id order plus the document-frequency table. It is the
// inverse of walking Token/DocFreq over all ids, used when loading a saved
// engine.
func NewVocabFromTokens(tokens []string, docFreqs []int, numDocs int) (*Vocab, error) {
	if len(tokens) == 0 || tokens[0] != "[UNK]" {
		return nil, fmt.Errorf("textenc: token 0 must be [UNK]")
	}
	if len(docFreqs) != len(tokens) {
		return nil, fmt.Errorf("textenc: %d tokens but %d doc freqs", len(tokens), len(docFreqs))
	}
	v := &Vocab{tokens: make([]string, 0, len(tokens)), numDocs: numDocs}
	keys := len(tokens)
	for _, t := range tokens {
		if strings.HasPrefix(t, "##") {
			keys++
		}
	}
	v.table.reserve(keys)
	for _, t := range tokens {
		if _, dup := v.ID(t); dup {
			return nil, fmt.Errorf("textenc: duplicate token %q", t)
		}
		v.add(t)
	}
	v.docFreq = append([]int(nil), docFreqs...)
	return v, nil
}
