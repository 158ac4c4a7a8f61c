package core

import (
	"strings"
	"testing"
	"unicode"
)

// FuzzQueryKey drives normalizeQueryKey and cacheKey with arbitrary
// bytes: normalization must never panic, must be idempotent, must be
// insensitive to case and surrounding whitespace, and two distinct
// (kind, query, m, n) tuples must never share a cache key.
func FuzzQueryKey(f *testing.F) {
	for _, seed := range []string{
		"", " ", "graph embedding", "Graph\tEmbedding\n", "研究  论文",
		"q\x0010,5", strings.Repeat("a ", 100), "\xff\xfe invalid utf8",
	} {
		f.Add(seed, 10, 5)
	}
	f.Fuzz(func(t *testing.T, q string, m, n int) {
		norm := normalizeQueryKey(q)
		if again := normalizeQueryKey(norm); again != norm {
			t.Fatalf("not idempotent: %q -> %q -> %q", q, norm, again)
		}
		// Simple Unicode lowercasing is idempotent, so a pre-lowercased
		// variant must land on the same key. (ToUpper is NOT safe to fold
		// here: ı/ſ-style characters round-trip to different letters.)
		if normalizeQueryKey(strings.ToLower(q)) != norm {
			t.Fatalf("lowercase variant of %q normalizes differently", q)
		}
		if normalizeQueryKey("  "+q+"\t") != norm {
			t.Fatalf("surrounding whitespace changes the key for %q", q)
		}
		if strings.ContainsFunc(norm, func(r rune) bool { return unicode.IsSpace(r) && r != ' ' }) {
			t.Fatalf("normalized form %q keeps non-space whitespace", norm)
		}
		if strings.Contains(norm, "  ") {
			t.Fatalf("normalized form %q keeps a whitespace run", norm)
		}

		ke := cacheKey(kindExperts, norm, m, n)
		kp := cacheKey(kindPapers, norm, m, n)
		if ke == kp {
			t.Fatalf("experts and papers keys collide for %q", norm)
		}
		if cacheKey(kindExperts, norm, m+1, n) == ke || cacheKey(kindExperts, norm, m, n+1) == ke {
			t.Fatalf("bound change does not change the key for %q", norm)
		}
	})
}
