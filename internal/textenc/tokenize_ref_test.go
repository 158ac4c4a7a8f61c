package textenc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// refTokenizer is Tokenize as it stood when the vocabulary looked tokens
// up in two Go maps — whole tokens by surface, continuation tokens by
// their surface without "##" — frozen here as the reference the token
// table must reproduce id for id. Its word split is a frozen copy too.
type refTokenizer struct {
	ids, contIDs map[string]TokenID
	maxLen       int
}

func newRefTokenizer(v *Vocab) *refTokenizer {
	r := &refTokenizer{ids: map[string]TokenID{}, contIDs: map[string]TokenID{}, maxLen: MaxSequenceLength}
	for id := 0; id < v.Size(); id++ {
		tok := v.Token(TokenID(id))
		if _, dup := r.ids[tok]; dup {
			continue
		}
		r.ids[tok] = TokenID(id)
		if strings.HasPrefix(tok, "##") {
			r.contIDs[tok[2:]] = TokenID(id)
		}
	}
	return r
}

func (t *refTokenizer) Tokenize(text string) []TokenID {
	var out []TokenID
	refForEachWord(text, func(w string) bool {
		if len(out) >= t.maxLen {
			return false
		}
		out = t.appendWord(out, w)
		return true
	})
	if len(out) > t.maxLen {
		out = out[:t.maxLen]
	}
	return out
}

func (t *refTokenizer) appendWord(out []TokenID, w string) []TokenID {
	if id, ok := t.ids[w]; ok {
		return append(out, id)
	}
	var offs []int
	for i := range w {
		offs = append(offs, i)
	}
	offs = append(offs, len(w))
	nr := len(offs) - 1
	mark := len(out)
	start := 0
	for start < nr {
		matched := false
		for end := nr; end > start; end-- {
			cand := w[offs[start]:offs[end]]
			var id TokenID
			var ok bool
			if start > 0 {
				id, ok = t.contIDs[cand]
			} else {
				id, ok = t.ids[cand]
			}
			if ok {
				out = append(out, id)
				start = end
				matched = true
				break
			}
		}
		if !matched {
			return append(out[:mark], UnknownToken)
		}
	}
	return out
}

// refForEachWord calls fn with every maximal run of letters and digits
// of text, lower-cased rune by rune, until fn returns false.
func refForEachWord(text string, fn func(string) bool) {
	var scratch []byte
	i, n := 0, len(text)
	for i < n {
		c := text[i]
		if c < utf8.RuneSelf {
			if !(('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')) {
				i++
				continue
			}
		} else {
			r, sz := utf8.DecodeRuneInString(text[i:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				i += sz
				continue
			}
		}
		start := i
		dirty := false
		for i < n {
			c := text[i]
			if c < utf8.RuneSelf {
				if ('a' <= c && c <= 'z') || ('0' <= c && c <= '9') {
					if dirty {
						scratch = append(scratch, c)
					}
					i++
					continue
				}
				if 'A' <= c && c <= 'Z' {
					if !dirty {
						scratch = append(scratch[:0], text[start:i]...)
						dirty = true
					}
					scratch = append(scratch, c+'a'-'A')
					i++
					continue
				}
				break
			}
			r, sz := utf8.DecodeRuneInString(text[i:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			if !dirty {
				scratch = append(scratch[:0], text[start:i]...)
				dirty = true
			}
			scratch = utf8.AppendRune(scratch, unicode.ToLower(r))
			i += sz
		}
		w := text[start:i]
		if dirty {
			w = string(scratch)
		}
		if !fn(w) {
			return
		}
	}
}

// tokenizeTexts are texts the generated corpus does not hold: mixed case,
// non-ASCII scripts and undecodable bytes, words longer than 16 bytes
// (alone, sharing a long prefix with a known word, and made of known
// pieces), and a text past MaxSequenceLength tokens.
func tokenizeTexts(known []string) []string {
	texts := []string{
		"", "   ", "...!!!", "a", "A", "Z9",
		"Community Search over LARGE Graphs",
		"COMMUNITY detection in Heterogeneous graphs; a Survey (2nd ed.)",
		"Überraschung: naïve Bayes für Café-Empfehlungen",
		"图神经网络 用于 专家发现 与 图神经网络",
		"Поиск экспертов в ГЕТЕРОГЕННЫХ графах",
		"İstanbul Kelvin scale \xff\xfe broken bytes and ǅ titlecase",
		"supercalifragilisticexpialidocious antidisestablishmentarianism",
		"0123456789abcdef0123456789abcdef 0123456789abcdefX",
		strings.Repeat("x", 200),
	}
	known = known[:min(len(known), 40)]
	for _, w := range known {
		texts = append(texts,
			strings.ToUpper(w),
			w+w+w+w+w, // past 16 bytes, of known pieces
			w+"qqqqqqqqqqqqqqqqqqqq",
		)
	}
	var long strings.Builder
	for i := range 700 {
		fmt.Fprintf(&long, "Graph%d ", i*7919)
	}
	return append(texts, long.String(), strings.Join(known, " "))
}

// TestTokenizeMatchesReference holds Tokenize to the map-based reference
// on the generated 3 000-paper corpus's vocabulary — every paper, 2 000
// generated queries, the texts of tokenizeTexts, each also upper- and
// title-cased — and on the small reference corpora's vocabularies (their
// own texts, the first 200 queries and tokenizeTexts), each directly and
// through NewVocabFromTokens's rebuilt vocabulary.
func TestTokenizeMatchesReference(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(3000))
	var corpus []string
	for _, p := range ds.Graph.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, ds.Graph.Label(p))
	}
	var texts []string
	texts = append(texts, corpus...)
	for _, q := range ds.Queries(2000, rand.New(rand.NewSource(1))) {
		texts = append(texts, q.Text)
	}
	type vocabTexts struct {
		v     *Vocab
		texts []string
	}
	vocabs := map[string]vocabTexts{"aminer-3000": {BuildVocab(corpus, VocabConfig{}), texts}}
	for name, c := range referenceCorpora() {
		small := append(slices.Clone(c), texts[len(corpus):len(corpus)+200]...)
		vocabs[name] = vocabTexts{BuildVocab(c, VocabConfig{MinWordFreq: 1}), small}
		vocabs[name+" small"] = vocabTexts{BuildVocab(c, VocabConfig{MaxWords: 40, MaxSubwords: 60, MinWordFreq: 2}), small}
	}
	for name, vt := range vocabs {
		v := vt.v
		var known []string
		for id := 1; id < v.Size() && len(known) < 200; id++ {
			if tok := v.Token(TokenID(id)); !strings.HasPrefix(tok, "##") {
				known = append(known, tok)
			}
		}
		all := append(slices.Clone(vt.texts), tokenizeTexts(known)...)
		rebuilt := make([]string, v.Size())
		freqs := make([]int, v.Size())
		for id := range rebuilt {
			rebuilt[id], freqs[id] = v.Token(TokenID(id)), v.DocFreq(TokenID(id))
		}
		rv, err := NewVocabFromTokens(rebuilt, freqs, v.NumDocs())
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefTokenizer(v)
		for _, tk := range []*Tokenizer{NewTokenizer(v), NewTokenizer(rv)} {
			for _, text := range all {
				for _, s := range []string{text, strings.ToUpper(text), strings.ToTitle(text)} {
					if got, want := tk.Tokenize(s), ref.Tokenize(s); !slices.Equal(got, want) {
						t.Fatalf("%s: Tokenize(%.60q) = %d ids, the reference %d ids\n got %v\nwant %v",
							name, s, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}
