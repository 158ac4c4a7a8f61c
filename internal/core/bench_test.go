package core

import (
	"context"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/train"
)

var readCorpusSink train.TokenCache

// BenchmarkReadCorpus is the build's text stages over the 20 000-paper
// corpus of the benchmark's query_exact workload: one scan of the labels
// for the vocabulary and every paper's tokens, the pre-trained encoder
// (n-gram table and distributional pass, dim 64) and the token cache. The
// corpus is generated outside the timer.
func BenchmarkReadCorpus(b *testing.B) {
	g := dataset.Generate(dataset.AminerSim(20000)).Graph
	opts := Options{Seed: 1}.withDefaults()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, readCorpusSink = readCorpus(context.Background(), g, opts)
	}
}
