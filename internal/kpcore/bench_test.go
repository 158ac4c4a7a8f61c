package kpcore

import (
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// BenchmarkNewCoreIndex is the (k,P)-core index along P-T-P, the
// meta-path with the largest projection, over a generated 5 000-paper
// graph, the size of the benchmark's PG-Index workloads: the projection,
// the core decomposition and the component labelling.
func BenchmarkNewCoreIndex(b *testing.B) {
	g := dataset.Generate(dataset.AminerSim(5000)).Graph
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coreIndexSink = NewCoreIndex(g, 4, hetgraph.PTP)
	}
}

var coreIndexSink *CoreIndex
