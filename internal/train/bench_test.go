package train

import (
	"math/rand"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
)

// BenchmarkFineTune is one fine-tune at the defaults (4 epochs, batch 64)
// of a 64-dimensional encoder on the (k,P)-core triples of a generated
// 500-paper corpus: forward pooling, backward scatter, the merge of the
// chunks' gradients and the Adam steps. The corpus, the encoder and the
// triples are built outside the timer, and every iteration starts from
// the same pre-trained table.
func BenchmarkFineTune(b *testing.B) {
	g := dataset.Generate(dataset.AminerSim(500)).Graph
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	base := textenc.NewEncoder(textenc.BuildVocab(corpus, textenc.VocabConfig{}), 64, 1)
	cache := BuildTokenCache(g, base)
	triples, _ := sampling.Generate(g, sampling.Config{}, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	var steps int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		enc := cloneEncoder(b, base)
		b.StartTimer()
		steps += FineTune(enc, cache, triples, Config{}, rand.New(rand.NewSource(2))).Steps
	}
	b.ReportMetric(float64(len(triples)), "triples")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkBuildTokenCache tokenises every label of a generated
// 2 000-paper corpus, the size of the benchmark's offline build, with a
// vocabulary built outside the timer.
func BenchmarkBuildTokenCache(b *testing.B) {
	g := dataset.Generate(dataset.AminerSim(2000)).Graph
	var corpus []string
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		corpus = append(corpus, g.Label(p))
	}
	enc := textenc.NewEncoder(textenc.BuildVocab(corpus, textenc.VocabConfig{}), 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokenCacheSink = BuildTokenCache(g, enc)
	}
}

var tokenCacheSink TokenCache
