package pgindex

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/par"
	"expertfind/internal/vec"
)

// Config controls PG-Index construction. Zero values take defaults.
type Config struct {
	// K is the kNN-graph degree (default 10). Refinement caps a node's
	// out-degree at 2*K.
	K int
	// MaxIters bounds NNDescent iterations (default 12).
	MaxIters int
	// Refine toggles Algorithm 2's neighbour refinement (lines 7-12); the
	// "raw kNN graph" ablation disables it.
	Refine bool
	// Seed is the value callers (cmd/expertserve, cluster.ShardEngine,
	// bench/) seed the rng handed to BuildGraph from; BuildGraph itself
	// never reads it.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 12
	}
	return c
}

// DefaultConfig returns the configuration used by the experiments, with
// refinement on.
func DefaultConfig() Config { return Config{Refine: true}.withDefaults() }

// Index is the proximity-graph document index. Nodes are papers; each
// keeps a short refined out-neighbour list; search enters at the
// navigating node (the paper closest to the corpus centroid).
//
// Embeddings live in one flat row-major float32 matrix, so an exhaustive
// scan walks memory linearly, and every distance — traversal, pool and
// published order — is vec.L2Sq32 over its rows. Ids ascend with the row.
// The graph is optional: without one (FromRows, no BuildGraph) every
// search is the exact Scan of the rows, the "w/o PG-Index" retrieval.
type Index struct {
	ids   []hetgraph.NodeID // dense index -> paper id, ascending
	embs  *vec.Matrix32     // dense index -> representation (row i)
	graph bool              // whether nbrs, nav and entries exist
	nbrs  [][]int32         // refined out-neighbours per dense index
	nav   int32             // navigating node (dense index)
	// entries are additional stratified search entry points. Fine-tuned
	// corpora form tight, mutually near-equidistant clusters; a single
	// entry leaves greedy search stranded on that plateau, so the search
	// seeds its pool with these as well (DESIGN.md, caveat 6).
	entries []int32
}

// Result is one retrieved paper with its distance to the query.
type Result struct {
	ID   hetgraph.NodeID
	Dist float64 // L2 distance δ to the query
}

// BuildWithRand copies an embedding map into ascending rows and builds
// the proximity graph over them with rng (see FromRows and BuildGraph).
//
// Deprecated: the engine and the experiments embed straight into rows
// (train.EmbedRows) and build with FromRows and BuildGraph. BuildWithRand
// is kept for bench/'s replay of a build; ROADMAP item 1(a) deletes it.
func BuildWithRand(embs map[hetgraph.NodeID]vec.Vec32, cfg Config, rng *rand.Rand) *Index {
	ids, dim := make([]hetgraph.NodeID, 0, len(embs)), 0
	for id, v := range embs {
		ids, dim = append(ids, id), v.Dim()
	}
	slices.Sort(ids)
	rows := vec.NewMatrix32(len(ids), dim)
	for i, id := range ids {
		copy(rows.Row(i), embs[id])
	}
	idx := FromRows(ids, rows)
	idx.BuildGraph(cfg, rng)
	return idx
}

// FromRows adopts ids (strictly ascending) and rows (row i embeds ids[i];
// nil when ids is empty) as an index without a graph, copying neither.
func FromRows(ids []hetgraph.NodeID, rows *vec.Matrix32) *Index {
	return &Index{ids: ids, embs: rows}
}

// HasGraph reports whether the index has a proximity graph.
func (idx *Index) HasGraph() bool { return idx.graph }

// Rows returns the index's live, read-only storage (see FromRows); an
// Insert may move it.
func (idx *Index) Rows() ([]hetgraph.NodeID, *vec.Matrix32) { return idx.ids, idx.embs }

// BuildGraph (re)builds the proximity graph over the rows (Algorithm 2):
// navigating-node selection, kNN-graph initialisation via NNDescent,
// long-distance neighbour extension, and redundant-neighbour removal. Its
// only randomness, NNDescent's initialisation, draws from rng alone, so
// equal rows and equally seeded rngs give identical graphs — which lets
// every replica of a cluster shard rebuild its index bit for bit.
func (idx *Index) BuildGraph(cfg Config, rng *rand.Rand) {
	cfg = cfg.withDefaults()
	idx.graph, idx.nbrs, idx.nav, idx.entries = true, nil, 0, nil
	if len(idx.ids) == 0 {
		return
	}

	// (1) Navigating node: the paper whose representation is closest to
	// the centroid g of all papers.
	rows := make([]vec.Vec32, idx.embs.Rows)
	for i := range rows {
		rows[i] = idx.embs.Row(i)
	}
	// The first row at the least distance, by strict < in row order.
	d2 := make([]float32, idx.embs.Rows)
	vec.L2SqRows32(d2, idx.embs.Data, vec.Mean32(rows))
	best := 0
	for i, d := range d2 {
		if d < d2[best] {
			best = i
		}
	}
	idx.nav = int32(best)

	// (2) Initialise the kNN graph with NNDescent.
	knn := nnDescent(idx.embs, cfg.K, cfg.MaxIters, rng)

	if !cfg.Refine {
		idx.nbrs = knn
		idx.ensureReachable()
		idx.pickEntries()
		return
	}

	// (3) Refine neighbours: extend with two-hop "highway" candidates,
	// then drop occluded (redundant) ones. A node's refined list reads
	// only the kNN graph and the rows, so the nodes are refined on up to
	// GOMAXPROCS goroutines, each writing only its own nodes' lists.
	idx.nbrs = make([][]int32, len(knn))
	par.Chunks(len(knn), runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		var cands []int32
		for p := lo; p < hi; p++ {
			cands = append(cands[:0], knn[p]...)
			for _, x := range knn[p] {
				for _, y := range knn[x] {
					if int(y) != p {
						cands = append(cands, y)
					}
				}
			}
			idx.nbrs[p] = idx.refineNeighbors(int32(p), cands, 2*cfg.K)
		}
	})

	// (4) Connectivity repair: occlusion pruning can disconnect tightly
	// clustered corpora from the navigating node (every cross-cluster edge
	// is "redundant" under near-tied distances), leaving greedy search
	// stranded. As in NSG/Vamana, link every unreachable node to its
	// nearest reachable one so the search tree spans all papers.
	idx.ensureReachable()
	idx.pickEntries()
}

// l2sqDense returns the exact squared distance between dense rows a and b.
func (idx *Index) l2sqDense(a, b int32) float32 {
	return vec.L2Sq32(idx.embs.Row(int(a)), idx.embs.Row(int(b)))
}

// pickEntries selects up to 32 stratified extra entry points (every
// n/32-th node in dense order), deterministic for a given corpus.
func (idx *Index) pickEntries() {
	n := len(idx.ids)
	const want = 32
	if n <= want {
		return
	}
	stride := n / want
	for i := 0; i < n; i += stride {
		idx.entries = append(idx.entries, int32(i))
	}
}

// ensureReachable makes every node reachable from the navigating node by
// BFS over out-edges, adding bidirectional links from stranded nodes to
// their nearest reachable node.
func (idx *Index) ensureReachable() {
	n := len(idx.ids)
	if n == 0 {
		return
	}
	reached := make([]bool, n)
	var reachable []int32
	var bfs func(start int32)
	bfs = func(start int32) {
		queue := []int32{start}
		reached[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			reachable = append(reachable, v)
			for _, u := range idx.nbrs[v] {
				if !reached[u] {
					reached[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	bfs(idx.nav)
	for u := int32(0); int(u) < n; u++ {
		if reached[u] {
			continue
		}
		// Nearest currently reachable node to u.
		best, bestD := reachable[0], idx.l2sqDense(u, reachable[0])
		for _, v := range reachable[1:] {
			if d := idx.l2sqDense(u, v); d < bestD {
				best, bestD = v, d
			}
		}
		idx.nbrs[best] = append(idx.nbrs[best], u)
		idx.nbrs[u] = append(idx.nbrs[u], best)
		bfs(u)
	}
}

// refineNeighbors applies the redundant-neighbour removal of Algorithm 2
// (lines 9-12): visiting candidates in ascending distance from p, a
// candidate y is redundant — and removed — if some already-kept neighbour x
// satisfies δ(x,y) <= δ(y,p), because the search can reach y through x.
// cands may repeat a row; it is sorted and compacted in place, so each
// distinct candidate costs one distance. Candidates are visited in the
// order of their packed keys, ties by row.
func (idx *Index) refineNeighbors(p int32, cands []int32, maxDegree int) []int32 {
	slices.Sort(cands)
	cands = slices.Compact(cands)
	keys := make([]uint64, len(cands))
	for k, c := range cands {
		keys[k] = packKey(idx.l2sqDense(p, c), c)
	}
	slices.Sort(keys)
	var kept []int32
	for _, k := range keys {
		if len(kept) >= maxDegree {
			break
		}
		y, d := int32(uint32(k)), math.Float32frombits(uint32(k>>32))
		if !slices.ContainsFunc(kept, func(x int32) bool { return idx.l2sqDense(x, y) <= d }) {
			kept = append(kept, y)
		}
	}
	return kept
}

// SearchStats reports the work done by one search, for the efficiency
// experiments (Figure 5's expansion/visit counts).
type SearchStats struct {
	DistanceComputations int
	NodesVisited         int
	Expansions           int
}

// Search returns the m papers most similar to the query representation,
// using greedy best-first expansion from the navigating node (§IV-B) with
// a candidate pool of size max(m, ef), seeded with the stratified entry
// points. ef=0 uses 2m. Results are sorted ascending by distance, ties by
// paper id — the same canonical order as BruteForce.
func (idx *Index) Search(query vec.Vec32, m, ef int) ([]Result, SearchStats) {
	return idx.SearchEx(query, m, ef, true)
}

// SearchCtx is Search with cooperative cancellation: the greedy expansion
// loop checks ctx every cancelCheckEvery expansions and returns ctx.Err()
// with the partial stats when the deadline passed or the caller went away.
func (idx *Index) SearchCtx(ctx context.Context, query vec.Vec32, m, ef int) ([]Result, SearchStats, error) {
	return idx.searchCtx(ctx, query, m, ef, true)
}

// SearchEx is Search with the entry strategy exposed: multiEntry=false
// starts from the navigating node alone, the paper's original §IV-B
// procedure (used by the Figure 5 experiment to isolate the effect of the
// Algorithm 2 refinement); multiEntry=true additionally seeds the
// stratified entries, which rescue greedy search on tightly clustered
// fine-tuned corpora (see DESIGN.md).
func (idx *Index) SearchEx(query vec.Vec32, m, ef int, multiEntry bool) ([]Result, SearchStats) {
	res, st, _ := idx.searchCtx(context.Background(), query, m, ef, multiEntry)
	return res, st
}

// cancelCheckEvery spaces the context polls of SearchCtx: one atomic load
// per this many node expansions, cheap next to the distance computations
// an expansion performs.
const cancelCheckEvery = 32

// searchScratch is the per-search working memory, recycled through a
// package-level pool so steady-state queries allocate only their result
// slice. visited is an epoch-stamped array: marking a node is one store,
// clearing all marks is one epoch increment. The walk's pool, the ef
// papers nearest the query among those scored, is two runs of packKey
// keys, Float32bits(d²)<<32 | uint32(dense row), which order canonically
// because ids ascend with the rows. todo[head:] holds the unexpanded entries in ascending order, so
// its head is the next to expand and the gap todo[:head] that expansions
// leave takes inserts near the front; done holds the expanded entries
// unsorted, doneMax the largest of them.
type searchScratch struct {
	visited []uint32
	epoch   uint32
	todo    []uint64
	head    int
	done    []uint64
	doneMax uint64
	tmp     []uint64 // the answer's radix-sort scratch
	seeds   []int32  // the walk's entry points
}

var scratchPool = sync.Pool{New: func() interface{} { return &searchScratch{} }}

// getScratch returns a recycled scratch for a walk over n rows with a
// pool of ef, its marks cleared and todo's capacity 2ef or more.
func getScratch(n, ef int) *searchScratch {
	s := scratchPool.Get().(*searchScratch)
	if len(s.visited) < n {
		s.visited = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	if cap(s.todo) < 2*ef {
		s.todo = make([]uint64, 0, 2*ef)
	}
	s.todo, s.head, s.done, s.doneMax = s.todo[:0], 0, s.done[:0], 0
	return s
}

func (idx *Index) searchCtx(ctx context.Context, query vec.Vec32, m, ef int, multiEntry bool) ([]Result, SearchStats, error) {
	var st SearchStats
	if !idx.graph {
		res, err := Scan(ctx, idx.ids, idx.embs, query, m)
		return res, st, err
	}
	n := len(idx.ids)
	if n == 0 || m <= 0 {
		return nil, st, ctx.Err()
	}
	m = min(m, n)
	if ef < m {
		ef = 2 * m
	}
	// Exhaustive fast path: when the pool would admit every paper anyway,
	// graph traversal is pure overhead — scan the flat matrix instead. It
	// performs the same distance computations as BruteForce, so results
	// agree with it bit for bit.
	if ef >= n {
		res, err := Scan(ctx, idx.ids, idx.embs, query, m)
		if err == nil {
			st.DistanceComputations, st.NodesVisited = n, n
		}
		return res, st, err
	}
	s := getScratch(n, ef)
	defer scratchPool.Put(s)
	keys, err := idx.walk(ctx, s, query, m, ef, multiEntry, &st)
	if err != nil {
		return nil, st, err
	}
	res := make([]Result, len(keys))
	for i, k := range keys {
		res[i] = Result{ID: idx.ids[uint32(k)], Dist: keyDist(k)}
	}
	return res, st, nil
}

// walk is the greedy best-first expansion of §IV-B with a pool of ef <
// len(idx.ids) over s, fresh from getScratch. Every scored paper is in
// the pool or was dropped as its worst entry, so todo's head is the
// nearest unexpanded candidate; the walk expands it until todo is empty,
// and returns the pool's m first keys in ascending order, in s's memory.
// The stats count into st.
func (idx *Index) walk(ctx context.Context, s *searchScratch, query vec.Vec32, m, ef int, multiEntry bool, st *SearchStats) ([]uint64, error) {
	// Score a batch (the entry points, then each expansion's neighbours).
	batch := append(s.seeds[:0], idx.nav)
	if multiEntry {
		batch = append(batch, idx.entries...)
	}
	s.seeds = batch
	for {
		for _, i := range batch {
			if s.visited[i] == s.epoch {
				continue
			}
			s.visited[i] = s.epoch
			st.DistanceComputations++
			st.NodesVisited++
			s.offer(packKey(vec.L2Sq32(idx.embs.Row(int(i)), query), i), ef)
		}
		if s.head == len(s.todo) {
			break
		}
		if st.Expansions%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		st.Expansions++
		k := s.todo[s.head]
		s.head++
		s.done = append(s.done, k)
		s.doneMax = max(s.doneMax, k)
		batch = idx.nbrs[uint32(k)]
	}
	// Every pool entry is expanded now: done is the pool, and its m
	// smallest keys are the answer.
	keys := s.done
	if len(keys) > m {
		keys = selectSmallest(keys, m)
	}
	if cap(s.tmp) < len(keys) {
		s.tmp = make([]uint64, len(keys))
	}
	sortKeys(keys, s.tmp[:len(keys)])
	return keys, nil
}

// offer adds the unexpanded key k to a pool of at most ef entries. A full
// pool takes it only below its worst entry — todo's last or doneMax —
// and drops that entry. An insert shifts the shorter side of todo: its
// front into the gap before the head, or its tail.
func (s *searchScratch) offer(k uint64, ef int) {
	if len(s.todo)-s.head+len(s.done) == ef {
		var last uint64
		if s.head < len(s.todo) {
			last = s.todo[len(s.todo)-1]
		}
		if k >= max(last, s.doneMax) {
			return
		}
		if last > s.doneMax {
			s.todo = s.todo[:len(s.todo)-1]
		} else {
			at := slices.Index(s.done, s.doneMax)
			s.done[at] = s.done[len(s.done)-1]
			s.done, s.doneMax = s.done[:len(s.done)-1], 0
			for _, d := range s.done {
				s.doneMax = max(s.doneMax, d)
			}
		}
	}
	h := s.head
	t := s.todo[h:]
	at, _ := slices.BinarySearch(t, k)
	if h > 0 && at < len(t)-at {
		copy(s.todo[h-1:], t[:at])
		s.todo[h-1+at], s.head = k, h-1
		return
	}
	if len(s.todo) == cap(s.todo) && h > 0 { // slide the entries to the front
		s.todo, s.head, h = s.todo[:copy(s.todo, t)], 0, 0
	}
	s.todo = append(s.todo, 0)
	copy(s.todo[h+at+1:], s.todo[h+at:])
	s.todo[h+at] = k
}

// BruteForce scans every embedding of the map and returns the exact m
// nearest papers to the query in canonical order. It is the oracle the
// tests and the benchmark judge every other retrieval path against;
// an index scans its contiguous rows with Scan instead.
func BruteForce(embs map[hetgraph.NodeID]vec.Vec32, query vec.Vec32, m int) []Result {
	m = min(m, len(embs))
	if m <= 0 {
		return []Result{}
	}
	ids := make([]hetgraph.NodeID, 0, len(embs))
	d2 := make([]float32, 0, len(embs))
	for id, e := range embs {
		ids = append(ids, id)
		d2 = append(d2, vec.L2Sq32(query, e))
	}
	s := newSelector(m, len(ids))
	s.add(ids, d2)
	return s.results()
}

// Len returns the number of indexed papers.
func (idx *Index) Len() int { return len(idx.ids) }

// row returns the dense row of paper p and whether p is indexed.
func (idx *Index) row(p hetgraph.NodeID) (int32, bool) {
	i, ok := slices.BinarySearch(idx.ids, p)
	return int32(i), ok
}

// NumEdges returns the total number of directed proximity edges, the
// index-size figure of Table VI.
func (idx *Index) NumEdges() int {
	n := 0
	for _, nb := range idx.nbrs {
		n += len(nb)
	}
	return n
}

// MemoryBytes estimates the index's resident size: float32 embeddings,
// adjacency, and the row ids (Table VI's memory column).
func (idx *Index) MemoryBytes() int64 {
	var b int64
	if idx.embs != nil {
		b += int64(len(idx.embs.Data)) * 4
	}
	b += int64(idx.NumEdges()) * 4
	b += int64(len(idx.ids)) * 4
	return b
}

// Embedding returns the indexed representation of p, or nil.
func (idx *Index) Embedding(p hetgraph.NodeID) vec.Vec32 {
	i, ok := idx.row(p)
	if !ok {
		return nil
	}
	return idx.embs.Row(int(i))
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

func (idx *Index) String() string {
	return fmt.Sprintf("pgindex: %d papers, %d edges, nav=%d", idx.Len(), idx.NumEdges(), idx.nav)
}
