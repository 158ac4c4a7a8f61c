package textenc

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// benchCorpus is the labels of a generated 2 000-paper corpus, the size
// of the benchmark's offline build.
func benchCorpus() []string {
	g := dataset.Generate(dataset.AminerSim(2000)).Graph
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	return corpus
}

// BenchmarkBuildVocab is vocabulary induction over the benchmark corpus:
// the one scan of the text, piece counts, the segmentation of every
// distinct word, the document frequencies and the token lists.
func BenchmarkBuildVocab(b *testing.B) {
	corpus := benchCorpus()
	var v *Vocab
	for i := 0; i < b.N; i++ {
		v = BuildVocab(corpus, VocabConfig{})
	}
	b.ReportMetric(float64(v.Size()), "tokens")
}

// BenchmarkNewEncoder is the n-gram pre-training of a 64-dimensional
// table over the vocabulary of the benchmark corpus; the vocabulary is
// built outside the timer.
func BenchmarkNewEncoder(b *testing.B) {
	v := BuildVocab(benchCorpus(), VocabConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEncoder(v, 64, 1)
	}
	b.ReportMetric(float64(v.Size()), "tokens")
}

// BenchmarkPretrainTokens is the random-indexing pass of a
// 64-dimensional encoder over the benchmark corpus's token lists. The
// vocabulary, the token lists and the n-gram table are built outside the
// timer, and every iteration starts from the same table.
func BenchmarkPretrainTokens(b *testing.B) {
	v, docs := BuildVocabTokens(benchCorpus(), VocabConfig{})
	base := NewEncoder(v, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := cloneEncoder(base)
		b.StartTimer()
		PretrainTokens(e, docs)
	}
}
