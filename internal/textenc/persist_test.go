package textenc

import (
	"slices"
	"testing"
)

func TestVocabRoundTripViaTokens(t *testing.T) {
	orig := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tokens := make([]string, orig.Size())
	freqs := make([]int, orig.Size())
	for id := 0; id < orig.Size(); id++ {
		tokens[id] = orig.Token(TokenID(id))
		freqs[id] = orig.DocFreq(TokenID(id))
	}
	rt, err := NewVocabFromTokens(tokens, freqs, orig.NumDocs())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Size() != orig.Size() || rt.NumDocs() != orig.NumDocs() {
		t.Fatal("size or doc count changed")
	}
	for id := 0; id < orig.Size(); id++ {
		tid := TokenID(id)
		if rt.Token(tid) != orig.Token(tid) || rt.IDF(tid) != orig.IDF(tid) {
			t.Fatalf("token %d changed after round trip", id)
		}
	}
	// Tokenization must agree.
	a := NewTokenizer(orig).Tokenize("community searching in graphs")
	b := NewTokenizer(rt).Tokenize("community searching in graphs")
	if len(a) != len(b) {
		t.Fatal("tokenization differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tokenization differs")
		}
	}
}

func TestNewVocabFromTokensValidation(t *testing.T) {
	if _, err := NewVocabFromTokens(nil, nil, 0); err == nil {
		t.Error("empty token list accepted")
	}
	if _, err := NewVocabFromTokens([]string{"foo"}, []int{1}, 1); err == nil {
		t.Error("missing [UNK] accepted")
	}
	if _, err := NewVocabFromTokens([]string{"[UNK]", "a", "a"}, []int{0, 1, 1}, 1); err == nil {
		t.Error("duplicate token accepted")
	}
	if _, err := NewVocabFromTokens([]string{"[UNK]", "a"}, []int{0}, 1); err == nil {
		t.Error("freq length mismatch accepted")
	}
}

func TestNewEncoderWithTable(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	orig := NewEncoder(v, 8, 3)
	data := slices.Clone(orig.Emb.Data)
	re, err := NewEncoderWithTable(v, 8, data)
	if err != nil {
		t.Fatal(err)
	}
	a := orig.Encode("community search")
	b := re.Encode("community search")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("restored encoder disagrees with original")
		}
	}
	if _, err := NewEncoderWithTable(v, 8, data[:10]); err == nil {
		t.Error("short table accepted")
	}
}
