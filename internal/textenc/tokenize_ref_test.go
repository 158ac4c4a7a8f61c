package textenc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// refTokenizer is Tokenize as it stood when the vocabulary looked tokens
// up in two Go maps — whole tokens by surface, continuation tokens by
// their surface without "##" — frozen here as the reference the token
// table must reproduce id for id. Its word split is a frozen copy too.
// FuzzTokenize holds Tokenize to it. It is the one check that catches an
// unsegmentable word's [UNK] appended after the pieces matched before it
// instead of in their place: the vocabulary's one scan segments through
// the same code, and no generated corpus has a character outside its
// vocabulary.
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
