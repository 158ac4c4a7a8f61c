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
// word counts, piece counts, the character pass and the document
// frequencies.
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

// BenchmarkPretrainDistributional is the random-indexing pass of a
// 64-dimensional encoder over the benchmark corpus. The vocabulary and
// the n-gram table are built outside the timer, and every iteration
// starts from the same table.
func BenchmarkPretrainDistributional(b *testing.B) {
	corpus := benchCorpus()
	base := NewEncoder(BuildVocab(corpus, VocabConfig{}), 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := base.Clone()
		b.StartTimer()
		PretrainDistributional(e, corpus)
	}
}
