package hetgraph_test

import (
	"runtime"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// BenchmarkGraphReads reads an AminerSim(20000) graph, larger than L2, the
// way a shard reply does: per op, 200 random papers, each one's author
// list, and the length of each author's paper list. It also reports the
// graph's heap bytes per node, measured on an unlabelled copy (node types
// and edges, every label "") built paper by paper as ReadJSON builds one.
//
//	go test -run '^$' -bench BenchmarkGraphReads -count 5 ./internal/hetgraph
func BenchmarkGraphReads(b *testing.B) {
	g := unlabelled(dataset.Generate(dataset.AminerSim(20000)).Graph)
	perNode := heapPerNode(g)
	papers := g.NodesOfType(hetgraph.Paper)
	x, sum := uint32(2463534242), 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 200; j++ {
			x ^= x << 13 // xorshift32: a draw costs a few ns, not a cache line
			x ^= x >> 17
			x ^= x << 5
			for _, a := range g.AuthorsOf(papers[x%uint32(len(papers))]) {
				sum += len(g.PapersOf(a))
			}
		}
	}
	b.StopTimer()
	if sum == 0 {
		b.Fatal("no author wrote a paper")
	}
	b.ReportMetric(perNode, "heap-B/node")
}

// unlabelled copies g's node types and edges, emitting every edge from its
// paper endpoint in paper order (each Cite once, towards the higher id).
func unlabelled(g *hetgraph.Graph) *hetgraph.Graph {
	c := hetgraph.New()
	for u := 0; u < g.NumNodes(); u++ {
		c.AddNode(g.Type(hetgraph.NodeID(u)), "")
	}
	for _, p := range g.NodesOfType(hetgraph.Paper) {
		for t, et := range [...]hetgraph.EdgeType{hetgraph.Author: hetgraph.Write,
			hetgraph.Paper: hetgraph.Cite, hetgraph.Venue: hetgraph.Publish, hetgraph.Topic: hetgraph.Mention} {
			for _, v := range g.Neighbors(p, hetgraph.NodeType(t)) {
				if et != hetgraph.Cite || v > p {
					c.MustAddEdge(p, v, et)
				}
			}
		}
	}
	return c
}

// heapPerNode is the live heap a second unlabelled copy of g adds, per node.
func heapPerNode(g *hetgraph.Graph) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := unlabelled(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(c.NumNodes())
}
