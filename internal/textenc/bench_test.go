package textenc

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// BenchmarkNewEncoder is the n-gram pre-training of a 64-dimensional
// table over the vocabulary of a generated 2 000-paper corpus, the size
// of the benchmark's offline build; the vocabulary is built outside the
// timer.
func BenchmarkNewEncoder(b *testing.B) {
	g := dataset.Generate(dataset.AminerSim(2000)).Graph
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	v := BuildVocab(corpus, VocabConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewEncoder(v, 64, 1)
	}
	b.ReportMetric(float64(v.Size()), "tokens")
}
