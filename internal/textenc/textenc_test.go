package textenc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitWords(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"graph-based kNN  search", []string{"graph", "based", "knn", "search"}},
		{"", nil},
		{"...", nil},
		{"abc123 x", []string{"abc123", "x"}},
	}
	for _, c := range cases {
		got := SplitWords(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitWords(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitWords(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func smallCorpus() []string {
	return []string{
		"community search over large graphs",
		"community detection in heterogeneous graphs",
		"neural network embedding for graphs",
		"expert finding with embedding models",
		"threshold algorithm for top k search",
	}
}

func TestBuildVocabContainsFrequentWords(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{})
	for _, w := range []string{"community", "graphs", "embedding", "search"} {
		if _, ok := v.ID(w); !ok {
			t.Errorf("frequent word %q missing from vocabulary", w)
		}
	}
	if _, ok := v.ID("[UNK]"); !ok {
		t.Error("[UNK] missing")
	}
	if id, _ := v.ID("[UNK]"); id != UnknownToken {
		t.Error("[UNK] is not token 0")
	}
}

func TestIDFOrdersByRarity(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	common, _ := v.ID("graphs")  // appears in 3 docs
	rare, _ := v.ID("threshold") // appears in 1 doc
	if v.IDF(rare) <= v.IDF(common) {
		t.Errorf("IDF(rare)=%v <= IDF(common)=%v", v.IDF(rare), v.IDF(common))
	}
}

func TestTokenizeKnownWholeWord(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tk := NewTokenizer(v)
	ids := tk.Tokenize("community")
	if len(ids) != 1 {
		t.Fatalf("whole word tokenized into %d pieces", len(ids))
	}
	if v.Token(ids[0]) != "community" {
		t.Errorf("token = %q", v.Token(ids[0]))
	}
}

func TestTokenizeOOVSegmentsIntoPieces(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tk := NewTokenizer(v)
	// "communities" is OOV but shares the prefix of "community".
	ids := tk.Tokenize("communities")
	if len(ids) == 0 {
		t.Fatal("no tokens for OOV word")
	}
	for _, id := range ids {
		if id == UnknownToken {
			t.Fatalf("OOV word degenerated to [UNK]; pieces=%v", tokens(v, ids))
		}
	}
	first := v.Token(ids[0])
	if strings.HasPrefix(first, "##") {
		t.Errorf("first piece %q must not be a continuation", first)
	}
	for _, id := range ids[1:] {
		if !strings.HasPrefix(v.Token(id), "##") {
			t.Errorf("continuation piece %q lacks ## prefix", v.Token(id))
		}
	}
}

func tokens(v *Vocab, ids []TokenID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Token(id)
	}
	return out
}

func TestTokenizeUnknownAlphabetFallsToUNK(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tk := NewTokenizer(v)
	ids := tk.Tokenize("日本語")
	if len(ids) != 1 || ids[0] != UnknownToken {
		t.Errorf("unsegmentable word = %v, want [UNK]", tokens(v, ids))
	}
}

func TestTokenizeTruncatesAtMaxSequenceLength(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	tk := NewTokenizer(v)
	long := strings.Repeat("community ", MaxSequenceLength+50)
	ids := tk.Tokenize(long)
	if len(ids) != MaxSequenceLength {
		t.Errorf("len = %d, want %d", len(ids), MaxSequenceLength)
	}
}

func TestEncoderDeterministic(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	e1 := NewEncoder(v, 16, 7)
	e2 := NewEncoder(v, 16, 7)
	a := e1.Encode("community search")
	b := e2.Encode("community search")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoders with the same seed disagree")
		}
	}
	e3 := NewEncoder(v, 16, 8)
	c := e3.Encode("community search")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical encodings")
	}
}

func TestEncodeNormalized(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 16, 7)
	got := e.Encode("community search").Norm()
	if got < 0.999 || got > 1.001 {
		t.Errorf("norm = %v, want 1", got)
	}
	if e.Encode("").Norm() != 0 {
		t.Error("empty text should encode to the zero vector")
	}
}

func TestMorphologicalVariantsCloserThanUnrelated(t *testing.T) {
	// The FastText-style init must place stem variants closer than
	// unrelated words.
	d := 32
	a := SurfaceVector(d, "clustering", 7)
	b := SurfaceVector(d, "clusterization", 7)
	c := SurfaceVector(d, "photosynthesis", 7)
	if a.Cosine(b) <= a.Cosine(c) {
		t.Errorf("cos(variants)=%v <= cos(unrelated)=%v", a.Cosine(b), a.Cosine(c))
	}
}

func TestPretrainDistributionalPullsCooccurringTokens(t *testing.T) {
	// Two words that always co-occur must end up closer than two that
	// never do.
	var corpus []string
	for i := 0; i < 30; i++ {
		corpus = append(corpus, "alphaone betaone filler"+fmt.Sprint(i))
		corpus = append(corpus, "gammaone deltaone filler"+fmt.Sprint(i))
	}
	v := BuildVocab(corpus, VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 32, 7)
	PretrainDistributional(e, corpus)
	id := func(w string) TokenID {
		x, ok := v.ID(w)
		if !ok {
			t.Fatalf("%q missing", w)
		}
		return x
	}
	alpha := e.Emb.Row(int(id("alphaone")))
	beta := e.Emb.Row(int(id("betaone")))
	gamma := e.Emb.Row(int(id("gammaone")))
	if alpha.Cosine(beta) <= alpha.Cosine(gamma) {
		t.Errorf("cooccurring cos=%v <= non-cooccurring cos=%v",
			alpha.Cosine(beta), alpha.Cosine(gamma))
	}
}

func TestPoolWeightsSumToOne(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 8, 7)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		ids := make([]TokenID, n)
		for i := range ids {
			ids[i] = TokenID(r.Intn(v.Size()))
		}
		ws := e.PoolWeights(ids)
		var sum float64
		for _, w := range ws {
			if w < 0 {
				return false
			}
			sum += w
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsolatesTable(t *testing.T) {
	v := BuildVocab(smallCorpus(), VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 8, 7)
	c := e.Clone()
	c.Emb.Data[0] += 5
	if e.Emb.Data[0] == c.Emb.Data[0] {
		t.Error("Clone shares the embedding table")
	}
	if e.NumParameters() != v.Size()*8 {
		t.Errorf("NumParameters = %d", e.NumParameters())
	}
}

func TestSimilarTextsCloserThanDissimilar(t *testing.T) {
	corpus := smallCorpus()
	v := BuildVocab(corpus, VocabConfig{MinWordFreq: 1})
	e := NewEncoder(v, 32, 7)
	a := e.Encode("community search over large graphs")
	b := e.Encode("community detection in heterogeneous graphs")
	c := e.Encode("threshold algorithm for top k search")
	if a.L2(b) >= a.L2(c) {
		t.Errorf("similar texts farther apart (%v) than dissimilar (%v)", a.L2(b), a.L2(c))
	}
}
