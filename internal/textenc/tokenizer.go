package textenc

import "math"

// MaxSequenceLength mirrors SciBERT's 512-token input limit; longer
// documents are truncated (§III-C).
const MaxSequenceLength = 512

// Tokenizer segments text into vocabulary tokens with greedy
// longest-match-first WordPiece inference.
type Tokenizer struct {
	vocab  *Vocab
	maxLen int
}

// NewTokenizer returns a tokenizer over v that truncates output to
// MaxSequenceLength tokens.
func NewTokenizer(v *Vocab) *Tokenizer {
	return &Tokenizer{vocab: v, maxLen: MaxSequenceLength}
}

// Tokenize splits text into words and segments each word into vocabulary
// tokens: a whole-word token if present, otherwise greedy longest-match
// pieces with "##" continuations, falling back to UnknownToken for
// unsegmentable words. The output is truncated to the maximum sequence
// length.
func (t *Tokenizer) Tokenize(text string) []TokenID {
	var sc tokScratch
	return t.appendTokens(nil, text, &sc)
}

// tokScratch is the memory one tokenisation reuses from word to word, and
// an encoder from query to query: the current word and its rune offsets.
type tokScratch struct {
	word []byte
	offs []int
}

// appendTokens appends the tokens of text, as Tokenize returns them, to
// out. Each word is found and lower-cased into sc.word by one scan
// (nextWord) and looked up in the token table by its hash.
func (t *Tokenizer) appendTokens(out []TokenID, text string, sc *tokScratch) []TokenID {
	limit := len(out) + t.maxLen
	for i := 0; len(out) < limit; {
		sc.word, i = nextWord(text, i, sc.word[:0])
		if len(sc.word) == 0 {
			break
		}
		out = t.appendWord(out, sc.word, &sc.offs)
	}
	return out[:min(len(out), limit)]
}

// appendWord appends the tokens of one lower-cased word w to out, using
// offs as scratch for its rune offsets. The whole word is one probe of
// the token table. A word that is not a token is segmented greedily,
// longest match first, over rune boundaries: the first piece is probed
// as a whole key, later pieces as continuation keys (the "##" token by
// its bare surface), so every candidate is a subslice of w and none is
// built, and a candidate longer than the longest key is not hashed.
func (t *Tokenizer) appendWord(out []TokenID, w []byte, offs *[]int) []TokenID {
	v := t.vocab
	if id, ok := v.table.find(w, wholeKey, v.tokens); ok {
		return append(out, id)
	}
	o := appendRuneOffsets((*offs)[:0], w)
	*offs = o
	nr := len(o) - 1
	mark := len(out)
	for start := 0; start < nr; {
		kind := wholeKey
		if start > 0 {
			kind = contKey
		}
		end := nr
		for ; end > start; end-- {
			if id, ok := v.table.find(w[o[start]:o[end]], kind, v.tokens); ok {
				out = append(out, id)
				break
			}
		}
		if end == start {
			// Unsegmentable word: represent the whole word as [UNK],
			// matching WordPiece behaviour.
			return append(out[:mark], UnknownToken)
		}
		start = end
	}
	return out
}

func logIDF(numDocs, df int) float64 {
	return math.Log(1 + float64(numDocs)/float64(1+df))
}
