package pgindex

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// navOf returns the index's navigating paper, read through Columns.
func navOf(idx *Index) hetgraph.NodeID {
	c := idx.Columns()
	return c.IDs[c.Nav]
}

// neighborsOf returns p's refined out-neighbours as paper ids, read from
// the CSR adjacency of c.
func neighborsOf(c Columns, p hetgraph.NodeID) []hetgraph.NodeID {
	i, _ := slices.BinarySearch(c.IDs, p)
	var out []hetgraph.NodeID
	for _, nb := range c.NbrDat[c.NbrOff[i]:c.NbrOff[i+1]] {
		out = append(out, c.IDs[nb])
	}
	return out
}

func randomEmbeddings(rng *rand.Rand, n, d int) map[hetgraph.NodeID]vec.Vec32 {
	out := make(map[hetgraph.NodeID]vec.Vec32, n)
	for i := 0; i < n; i++ {
		v := vec.New32(d)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[hetgraph.NodeID(i)] = v.Normalize()
	}
	return out
}

// build is the map-input build the tests use: the map's ids ascending,
// their rows in that order (FromRows), and Algorithm 2 over them with an
// rng seeded from cfg.Seed.
func build(embs map[hetgraph.NodeID]vec.Vec32, cfg Config) *Index {
	ids := make([]hetgraph.NodeID, 0, len(embs))
	for id := range embs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var rows *vec.Matrix32
	if len(ids) > 0 {
		rows = vec.NewMatrix32(len(ids), embs[ids[0]].Dim())
		for i, id := range ids {
			copy(rows.Row(i), embs[id])
		}
	}
	idx := FromRows(ids, rows)
	idx.BuildGraph(cfg, rand.New(rand.NewSource(cfg.Seed)))
	return idx
}

// clusteredEmbeddings mimics the fine-tuned geometry: tight clusters with
// large inter-cluster gaps — the hard case for proximity-graph search.
func clusteredEmbeddings(rng *rand.Rand, clusters, perCluster, d int) map[hetgraph.NodeID]vec.Vec32 {
	out := map[hetgraph.NodeID]vec.Vec32{}
	id := hetgraph.NodeID(0)
	for c := 0; c < clusters; c++ {
		center := vec.New32(d)
		for j := range center {
			center[j] = float32(rng.NormFloat64())
		}
		center.Normalize()
		for p := 0; p < perCluster; p++ {
			v := slices.Clone(center)
			for j := range v {
				v[j] += float32(rng.NormFloat64() * 0.01)
			}
			out[id] = v
			id++
		}
	}
	return out
}

func TestKnnListInsert(t *testing.T) {
	l := newKnnList(3)
	for _, n := range []neighbor{{id: 1, dist: 5}, {id: 2, dist: 3}, {id: 3, dist: 4}} {
		if !l.insert(n) {
			t.Fatalf("insert %v failed", n)
		}
	}
	// Full: worse candidate rejected, better accepted, duplicate rejected.
	if l.insert(neighbor{id: 4, dist: 9}) {
		t.Error("worse candidate accepted into full list")
	}
	if !l.insert(neighbor{id: 5, dist: 1}) {
		t.Error("better candidate rejected")
	}
	if l.insert(neighbor{id: 5, dist: 1}) {
		t.Error("duplicate accepted")
	}
	// Sorted ascending, size 3.
	if len(l.items) != 3 {
		t.Fatalf("size %d, want 3", len(l.items))
	}
	for i := 1; i < len(l.items); i++ {
		if l.items[i-1].dist > l.items[i].dist {
			t.Fatal("list not sorted")
		}
	}
	if l.items[0].id != 5 {
		t.Errorf("best id = %d, want 5", l.items[0].id)
	}
}

func TestBruteForceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	embs := randomEmbeddings(rng, 50, 8)
	q := embs[hetgraph.NodeID(7)]
	res := BruteForce(embs, q, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != 7 || res[0].Dist != 0 {
		t.Errorf("nearest to itself = %v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("results not sorted by distance")
		}
	}
	// m greater than corpus returns all.
	if got := BruteForce(embs, q, 500); len(got) != 50 {
		t.Errorf("overshoot m returned %d", len(got))
	}
}

func TestNNDescentRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	embs := randomEmbeddings(rng, 200, 8)
	dense := vec.NewMatrix32(0, 8)
	for i := 0; i < 200; i++ {
		dense.AppendRow(embs[hetgraph.NodeID(i)])
	}
	k := 8
	knn := nnDescent(dense, k, 15, rand.New(rand.NewSource(3)))
	// Compare against exact kNN: average recall must be high.
	var totalRecall float64
	for i := 0; i < dense.Rows; i++ {
		exact := map[int32]bool{}
		res := BruteForce(embs, dense.Row(i), k+1) // +1 for self
		for _, r := range res {
			if int(r.ID) != i {
				exact[int32(r.ID)] = true
			}
		}
		hit := 0
		for _, nb := range knn[i] {
			if exact[nb] {
				hit++
			}
		}
		totalRecall += float64(hit) / float64(k)
	}
	avg := totalRecall / float64(dense.Rows)
	if avg < 0.85 {
		t.Errorf("NNDescent recall = %.3f, want >= 0.85", avg)
	}
}

func TestBuildProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	embs := randomEmbeddings(rng, 150, 8)
	idx := build(embs, Config{Refine: true, Seed: 7})
	if idx.Len() != 150 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if idx.NumEdges() == 0 || idx.MemoryBytes() <= 0 {
		t.Error("index empty")
	}
	// Navigating node is the paper closest to the centroid.
	centroid := vec.New32(8)
	for _, e := range embs {
		vec.Axpy32(centroid, 1, e)
	}
	centroid.Scale(1 / float32(len(embs)))
	best := BruteForce(embs, centroid, 1)[0].ID
	if navOf(idx) != best {
		t.Errorf("navigating node %d, want %d", navOf(idx), best)
	}
	// Degree cap respected (plus at most a few repair edges).
	cfg := Config{Refine: true}.withDefaults()
	cols := idx.Columns()
	for i := 0; i < 150; i++ {
		p := hetgraph.NodeID(i)
		if d := len(neighborsOf(cols, p)); d > 2*cfg.K+4 {
			t.Errorf("paper %d degree %d exceeds cap %d", p, d, 2*cfg.K)
		}
	}
}

func TestBuildAllReachable(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		embs := clusteredEmbeddings(rng, 12, 12, 8)
		idx := build(embs, Config{Refine: true, Seed: seed})
		// BFS from the navigating node must reach every paper.
		visited := map[int32]bool{idx.nav: true}
		queue := []int32{idx.nav}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range idx.nbrs[v] {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(visited) != idx.Len() {
			t.Errorf("seed %d: only %d/%d reachable from navigating node", seed, len(visited), idx.Len())
		}
	}
}

func TestSearchRecallOnClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	embs := clusteredEmbeddings(rng, 15, 15, 12)
	idx := build(embs, Config{Refine: true, Seed: 9})
	var recall float64
	const m = 15
	queries := 20
	for i := 0; i < queries; i++ {
		q := slices.Clone(embs[hetgraph.NodeID(rng.Intn(len(embs)))])
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.02)
		}
		exact := map[hetgraph.NodeID]bool{}
		for _, r := range BruteForce(embs, q, m) {
			exact[r.ID] = true
		}
		got, st := idx.Search(q, m, 0)
		if st.NodesVisited == 0 || st.DistanceComputations == 0 {
			t.Fatal("search stats empty")
		}
		hit := 0
		for _, r := range got {
			if exact[r.ID] {
				hit++
			}
		}
		recall += float64(hit) / float64(m)
	}
	recall /= float64(queries)
	if recall < 0.9 {
		t.Errorf("search recall %.3f, want >= 0.9", recall)
	}
}

func TestSearchVisitsFewerThanBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	embs := clusteredEmbeddings(rng, 20, 20, 12)
	idx := build(embs, Config{Refine: true, Seed: 9})
	q := embs[hetgraph.NodeID(3)]
	_, st := idx.Search(q, 10, 0)
	if st.NodesVisited >= idx.Len() {
		t.Errorf("search visited all %d nodes — no pruning happening", st.NodesVisited)
	}
}

func TestSearchResultsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	embs := randomEmbeddings(rng, 100, 8)
	idx := build(embs, Config{Refine: true, Seed: 3})
	res, _ := idx.Search(embs[hetgraph.NodeID(0)], 10, 0)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i-1].Dist > res[i].Dist {
			t.Fatal("results not sorted")
		}
	}
	if res[0].ID != 0 {
		t.Errorf("own embedding not nearest: %v", res[0])
	}
}

func TestRefineOcclusionRule(t *testing.T) {
	// Three collinear points: p at 0, x at 1, y at 2.5. With candidates
	// {x, y} for p: δ(x,y)=1.5 <= δ(p,y)=2.5, so y is redundant.
	embs := map[hetgraph.NodeID]vec.Vec32{
		0: {0}, 1: {1}, 2: {2.5},
	}
	idx := build(embs, Config{K: 2, Refine: true, Seed: 1})
	n0 := neighborsOf(idx.Columns(), 0)
	for _, nb := range n0 {
		if nb == 2 {
			t.Errorf("occluded neighbour kept: %v", n0)
		}
	}
}

func TestEmptyAndTinyIndexes(t *testing.T) {
	idx := build(map[hetgraph.NodeID]vec.Vec32{}, Config{Refine: true})
	if idx.Len() != 0 {
		t.Error("empty index non-empty")
	}
	if res, _ := idx.Search(vec.Vec32{1}, 5, 0); res != nil {
		t.Error("search on empty index returned results")
	}
	one := build(map[hetgraph.NodeID]vec.Vec32{4: {1, 2}}, Config{Refine: true})
	res, _ := one.Search(vec.Vec32{1, 2}, 3, 0)
	if len(res) != 1 || res[0].ID != 4 {
		t.Errorf("singleton search = %v", res)
	}
}

func TestBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	embs := randomEmbeddings(rng, 80, 8)
	a := build(embs, Config{Refine: true, Seed: 5})
	b := build(embs, Config{Refine: true, Seed: 5})
	if a.NumEdges() != b.NumEdges() || navOf(a) != navOf(b) {
		t.Fatal("builds with same seed differ")
	}
	ca, cb := a.Columns(), b.Columns()
	for i := 0; i < 80; i++ {
		p := hetgraph.NodeID(i)
		if !slices.Equal(neighborsOf(ca, p), neighborsOf(cb, p)) {
			t.Fatalf("paper %d adjacency differs", p)
		}
	}
}

func TestNoRefineKeepsRawKNN(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	embs := randomEmbeddings(rng, 60, 8)
	raw := build(embs, Config{K: 5, Refine: false, Seed: 2})
	refined := build(embs, Config{K: 5, Refine: true, Seed: 2})
	if raw.Len() != refined.Len() {
		t.Fatal("lengths differ")
	}
	// The raw graph has ~K out-edges per node; the refined one differs.
	if raw.NumEdges() == refined.NumEdges() {
		t.Log("edge counts equal — acceptable but unusual; refinement should change the graph")
	}
	if res, _ := raw.Search(embs[hetgraph.NodeID(1)], 5, 0); len(res) != 5 {
		t.Error("raw kNN index search failed")
	}
}

// BenchmarkSearch times Search at the query_pg shape: 5 000 papers of 64
// dimensions in tight clusters, m = 200 and the default pool of 2m. ns/op
// is a mean; p50-ns is the median of the per-search times.
func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	embs := clusteredEmbeddings(rng, 100, 50, 64)
	idx := build(embs, DefaultConfig())
	queries := make([]vec.Vec32, 64)
	for i := range queries {
		q := slices.Clone(embs[hetgraph.NodeID(rng.Intn(len(embs)))])
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.02)
		}
		queries[i] = q
	}
	var evals, expansions int
	took := make([]time.Duration, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var st SearchStats
		start := time.Now()
		scanSink, st = idx.Search(queries[i%len(queries)], 200, 0)
		took[i] = time.Since(start)
		evals += st.DistanceComputations
		expansions += st.Expansions
	}
	slices.Sort(took)
	b.ReportMetric(float64(took[b.N/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	b.ReportMetric(float64(expansions)/float64(b.N), "expansions/op")
}

func TestEmbeddingAccessor(t *testing.T) {
	embs := map[hetgraph.NodeID]vec.Vec32{1: {1, 0}, 2: {0, 1}, 3: {1, 1}}
	idx := build(embs, Config{Refine: true})
	if got := idx.Embedding(2); got == nil || got[1] != 1 {
		t.Errorf("Embedding(2) = %v", got)
	}
	if idx.Embedding(99) != nil {
		t.Error("missing id returned an embedding")
	}
	if idx.String() == "" {
		t.Error("String empty")
	}
}
