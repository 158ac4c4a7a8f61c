package textenc

import (
	"slices"
	"strings"
	"testing"
)

// FuzzTokenize asserts the tokenizer's invariants on arbitrary input:
// never panic, never exceed the sequence cap, and only emit ids inside
// the vocabulary, the map-based reference's ids. A vocabulary induced
// from the text with the small corpus then holds the one scan to the
// reference and to Tokenize, and Tokenize under it to the reference.
func FuzzTokenize(f *testing.F) {
	v, _ := BuildVocabTokens(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tk, ref := NewTokenizer(v), newRefTokenizer(v)
	for _, seed := range []string{
		"", "community search", "日本語テキスト", "a", "ALL CAPS!!!",
		"mixed123numbers", "\x00\xff binary-ish", "ω≤∞ unicode math",
		// Upper-case letters outside ASCII, which lower-case rune by rune.
		"Поиск экспертов в ГЕТЕРОГЕННЫХ графах, İstanbul Kelvin ǅ",
		// Words of 5-7 bytes one byte off a token: the table's key hash
		// reads their tails in two overlapping loads.
		"graphz searcx expers",
		// Past MaxSequenceLength tokens, cut inside a word of two pieces.
		"a " + strings.Repeat("searching ", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		ids := tk.Tokenize(text)
		if len(ids) > MaxSequenceLength {
			t.Fatalf("emitted %d tokens, cap %d", len(ids), MaxSequenceLength)
		}
		for _, id := range ids {
			if int(id) < 0 || int(id) >= v.Size() {
				t.Fatalf("token id %d outside vocabulary [0,%d)", id, v.Size())
			}
		}
		if want := ref.Tokenize(text); !slices.Equal(ids, want) {
			t.Fatalf("Tokenize = %v, the reference %v", ids, want)
		}
		corpus := append(smallCorpus(), text)
		cfg := VocabConfig{MinWordFreq: 1}
		got, docs := BuildVocabTokens(corpus, cfg)
		checkVocab(t, "one scan", corpus, got, docs, refBuildVocab(corpus, cfg))
		if ids, want := NewTokenizer(got).Tokenize(text), newRefTokenizer(got).Tokenize(text); !slices.Equal(ids, want) {
			t.Fatalf("under its own vocabulary Tokenize = %v, the reference %v", ids, want)
		}
	})
}

// FuzzEncode asserts the encoder always yields a finite, unit-or-zero
// vector for arbitrary text.
func FuzzEncode(f *testing.F) {
	v, _ := BuildVocabTokens(smallCorpus(), VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 8, 1)
	f.Add("community graphs")
	f.Add("")
	f.Add("☃☃☃")
	f.Fuzz(func(t *testing.T, text string) {
		out := e.Encode(text)
		n := out.Norm()
		if n != n { // NaN
			t.Fatal("NaN norm")
		}
		if n > 1.001 {
			t.Fatalf("norm %v > 1 after normalisation", n)
		}
	})
}
