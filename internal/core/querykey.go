package core

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// NormalizeQueryKey canonicalises free-form query text for cache lookup:
// Unicode-lowercased, with every run of whitespace (including leading and
// trailing) collapsed to a single space. Two queries that differ only in
// case or spacing therefore share one cache entry, matching the encoder,
// whose tokenizer is itself case- and whitespace-insensitive. The function
// is idempotent: NormalizeQueryKey(NormalizeQueryKey(q)) == NormalizeQueryKey(q).
// Text that is already normal comes back as it is, unallocated.
func NormalizeQueryKey(q string) string {
	if isNormalASCII(q) {
		return q
	}
	var b strings.Builder
	b.Grow(len(q))
	space := false
	for _, r := range q {
		if unicode.IsSpace(r) {
			space = b.Len() > 0
			continue
		}
		if space {
			b.WriteByte(' ')
			space = false
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}

// isNormalASCII reports whether q is ASCII that NormalizeQueryKey would
// return unchanged: no upper case, no whitespace but single inner spaces.
func isNormalASCII(q string) bool {
	afterSpace := true // so a leading space is refused
	for i := 0; i < len(q); i++ {
		c := q[i]
		if c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || '\t' <= c && c <= '\r' || c == ' ' && afterSpace {
			return false
		}
		afterSpace = c == ' '
	}
	return !afterSpace || q == ""
}

// queryKind distinguishes the cached result families so an /experts fill
// can never satisfy a /papers lookup with the same text.
type queryKind byte

const (
	kindExperts queryKind = 'e'
	kindPapers  queryKind = 'p'
)

// cacheKey builds the full cache key for a normalized query: the kind and
// the m/n bounds are part of the identity, because they change the result.
// The '\x00' separator cannot appear in normalized text (NUL is not
// whitespace but is preserved; itoa output never contains it), so distinct
// (kind, q, m, n) triples map to distinct keys.
func cacheKey(kind queryKind, normalized string, m, n int) string {
	var b strings.Builder
	b.Grow(len(normalized) + 16)
	b.WriteByte(byte(kind))
	b.WriteByte(0)
	b.WriteString(normalized)
	b.WriteByte(0)
	b.WriteString(strconv.Itoa(m))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(n))
	return b.String()
}
