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

// Vocab returns the tokenizer's vocabulary.
func (t *Tokenizer) Vocab() *Vocab { return t.vocab }

// Tokenize splits text into words and segments each word into vocabulary
// tokens: a whole-word token if present, otherwise greedy longest-match
// pieces with "##" continuations, falling back to UnknownToken for
// unsegmentable words. The output is truncated to the maximum sequence
// length.
func (t *Tokenizer) Tokenize(text string) []TokenID {
	var out []TokenID
	forEachWord(text, func(w string) bool {
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

func (t *Tokenizer) appendWord(out []TokenID, w string) []TokenID {
	if id, ok := t.vocab.ID(w); ok {
		return append(out, id)
	}
	// Greedy longest-match segmentation over rune boundaries. Candidates
	// are substrings of w probed against the whole-word map (first piece)
	// or the bare-continuation map (later pieces, standing in for
	// "##"+piece), so no candidate string is ever built. offs[k] is the
	// byte offset of the k-th rune.
	offs := appendRuneOffsets(make([]int, 0, 32), w)
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
				id, ok = t.vocab.contID(cand)
			} else {
				id, ok = t.vocab.ID(cand)
			}
			if ok {
				out = append(out, id)
				start = end
				matched = true
				break
			}
		}
		if !matched {
			// Unsegmentable word: represent the whole word as [UNK],
			// matching WordPiece behaviour.
			return append(out[:mark], UnknownToken)
		}
	}
	return out
}

func logIDF(numDocs, df int) float64 {
	return math.Log(1 + float64(numDocs)/float64(1+df))
}
