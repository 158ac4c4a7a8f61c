package pgindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// TestSearchTieOrderMatchesBruteForce forces exact ties with duplicated
// embeddings: the search must break them as the oracle does, ascending
// NodeID, on the traversal path (ef below the corpus) as on the
// exhaustive one.
func TestSearchTieOrderMatchesBruteForce(t *testing.T) {
	embs := map[hetgraph.NodeID]vec.Vec32{}
	rng := rand.New(rand.NewSource(8))
	proto := make([]vec.Vec32, 5)
	for i := range proto {
		v := vec.New32(8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		proto[i] = v.Normalize()
	}
	// Ten copies of each prototype, interleaved IDs.
	for i := 0; i < 50; i++ {
		embs[hetgraph.NodeID(i)] = proto[i%5].Clone()
	}
	idx := Build(embs, Config{Refine: true, Seed: 2})
	for p := 0; p < 5; p++ {
		want := BruteForce(embs, proto[p], 12)
		for _, ef := range []int{0, 50} {
			got, _ := idx.Search(proto[p], 12, ef)
			if err := sameResults(got, want); err != nil {
				t.Fatalf("prototype %d ef=%d: %v", p, ef, err)
			}
		}
		// The ten exact duplicates lead, in ascending id order.
		for i := 0; i < 10; i++ {
			if id := hetgraph.NodeID(p + 5*i); want[i].ID != id || want[i].Dist != 0 {
				t.Fatalf("prototype %d rank %d = %v, want id %d dist 0", p, i, want[i], id)
			}
		}
	}
}

// TestSearchPoolIsCanonicalUnderTies searches for a paper with many more
// exact duplicates than the pool has slots: the pool must keep the
// duplicates of smallest id, as the oracle ranks them, whichever order the
// walk found them in. Half of each 300-paper corpus is copies of three
// prototypes; the queries are the prototypes, m = 10, ef = 20. A greedy
// walk need not reach every copy, so a query counts where the naive
// canonical walk (canonicalWalk) reaches BruteForce's answer: there Search
// must reach it too.
func TestSearchPoolIsCanonicalUnderTies(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		draw := func() vec.Vec32 {
			v := vec.New32(8)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			return v
		}
		proto := []vec.Vec32{draw(), draw(), draw()}
		embs := map[hetgraph.NodeID]vec.Vec32{}
		for i := 0; i < 300; i++ {
			embs[hetgraph.NodeID(i)] = draw()
			if i%2 == 1 {
				embs[hetgraph.NodeID(i)] = proto[rng.Intn(3)].Clone()
			}
		}
		idx := Build(embs, Config{Refine: true, Seed: seed})
		for p, q := range proto {
			want := BruteForce(embs, q, 10)
			if reached, _ := canonicalWalk(idx, q, 10, 20, true); sameResults(reached, want) != nil {
				continue
			}
			checked++
			got, _ := idx.Search(q, 10, 20)
			if err := sameResults(got, want); err != nil {
				t.Errorf("corpus %d prototype %d: %v", seed, p, err)
			}
		}
	}
	if checked < 80 {
		t.Fatalf("only %d of 120 queries reached the oracle's answer", checked)
	}
}

// canonicalWalk is the greedy search over a sorted pool written the naive
// way: after every insert the pool is re-sorted in canonical order and cut
// back to ef, and the next node to expand is found by a linear scan for
// the first unexpanded entry. Stats are counted as SearchStats counts them.
func canonicalWalk(idx *Index, query vec.Vec32, m, ef int, multiEntry bool) ([]Result, SearchStats) {
	type entry struct {
		id   int32
		dist float32
		done bool
	}
	var st SearchStats
	visited := map[int32]bool{}
	var pool []entry
	push := func(i int32) {
		if visited[i] {
			return
		}
		visited[i] = true
		st.DistanceComputations++
		st.NodesVisited++
		pool = append(pool, entry{id: i, dist: vec.L2Sq32(idx.embs.Row(int(i)), query)})
		sort.Slice(pool, func(a, b int) bool {
			if pool[a].dist != pool[b].dist {
				return pool[a].dist < pool[b].dist
			}
			return idx.ids[pool[a].id] < idx.ids[pool[b].id]
		})
		pool = pool[:min(len(pool), ef)]
	}
	push(idx.nav)
	if multiEntry {
		for _, e := range idx.entries {
			push(e)
		}
	}
	for {
		next := -1
		for k := range pool {
			if !pool[k].done {
				next = k
				break
			}
		}
		if next < 0 {
			break
		}
		pool[next].done = true
		st.Expansions++
		for _, nb := range idx.nbrs[pool[next].id] {
			push(nb)
		}
	}
	res := make([]Result, min(m, len(pool)))
	for k := range res {
		res[k] = Result{ID: idx.ids[pool[k].id], Dist: math.Sqrt(float64(pool[k].dist))}
	}
	return res, st
}

// TestSearchMatchesCanonicalWalk holds Search to canonicalWalk on a random
// and a clustered corpus: the same papers at the same distance bits, the
// same distance computations, visits and expansions, for pools from m to
// one short of the corpus and both entry strategies.
func TestSearchMatchesCanonicalWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	corpora := map[string]map[hetgraph.NodeID]vec.Vec32{
		"random":    randomEmbeddings(rng, 600, 16),
		"clustered": clusteredEmbeddings(rng, 30, 20, 16),
	}
	for name, embs := range corpora {
		idx := Build(embs, Config{Refine: true, Seed: 4})
		n := idx.Len()
		for q := 0; q < 12; q++ {
			query := embs[hetgraph.NodeID(rng.Intn(n))].Clone()
			for j := range query {
				query[j] += float32(rng.NormFloat64() * 0.05)
			}
			for _, m := range []int{1, 10, 200} {
				for _, ef := range []int{0, m, 2 * m, 400, n - 1} {
					for _, multi := range []bool{true, false} {
						got, gst := idx.SearchEx(query, m, ef, multi)
						pool := ef // Search's bound: a pool below m is 2m
						if pool < m {
							pool = 2 * m
						}
						want, wst := canonicalWalk(idx, query, m, pool, multi)
						if err := sameResults(got, want); err != nil {
							t.Fatalf("%s q=%d m=%d ef=%d multi=%v: %v", name, q, m, ef, multi, err)
						}
						if gst != wst {
							t.Fatalf("%s q=%d m=%d ef=%d multi=%v: stats %+v, want %+v", name, q, m, ef, multi, gst, wst)
						}
					}
				}
			}
		}
	}
}

// FuzzSearchMatchesReference holds Search to canonicalWalk on generated
// corpora, duplicated rows and integer grids included, so ties occur at
// every rank. A pool that covers the corpus takes the exhaustive path,
// which must equal the sort-everything reference.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(8), uint16(10), uint16(20), true)
	f.Add(int64(2), uint16(300), uint8(8), uint16(10), uint16(20), false)
	f.Add(int64(3), uint16(120), uint8(3), uint16(5), uint16(0), true)
	f.Add(int64(4), uint16(250), uint8(16), uint16(40), uint16(200), true)
	f.Add(int64(5), uint16(40), uint8(2), uint16(1), uint16(1), false)
	f.Add(int64(6), uint16(90), uint8(5), uint16(90), uint16(0), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, m, ef uint16, multi bool) {
		ids, rows, q := scanCorpus(seed, int(n)%400+1, int(dim)%24+1, seed%2 == 0)
		idx := Build(rowMap(ids, rows), Config{K: 2 + int(uint64(seed)%8), Refine: seed%3 != 0, Seed: seed})
		mm := int(m)%(len(ids)+3) + 1
		got, gst := idx.SearchEx(q, mm, int(ef), multi)
		// Search's own bounds: m at most the corpus, a pool below m is 2m.
		mc, efc := min(mm, len(ids)), int(ef)
		if efc < mc {
			efc = 2 * mc
		}
		if efc >= len(ids) {
			if err := sameResults(got, sortEverything(ids, rows, q, mm)); err != nil {
				t.Fatalf("exhaustive m=%d ef=%d: %v", mm, ef, err)
			}
			return
		}
		want, wst := canonicalWalk(idx, q, mc, efc, multi)
		if err := sameResults(got, want); err != nil {
			t.Fatalf("m=%d ef=%d multi=%v: %v", mm, efc, multi, err)
		}
		if gst != wst {
			t.Fatalf("m=%d ef=%d multi=%v: stats %+v, want %+v", mm, efc, multi, gst, wst)
		}
	})
}

// TestExhaustiveSearchMatchesBruteForce checks the index against the map
// oracle on the exhaustive path (ef >= corpus), where results must be
// exactly the true top-m, bit for bit.
func TestExhaustiveSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	embs := randomEmbeddings(rng, 90, 12)
	idx := Build(embs, Config{Refine: true, Seed: 6})
	for q := 0; q < 15; q++ {
		query := embs[hetgraph.NodeID(rng.Intn(len(embs)))].Clone()
		for j := range query {
			query[j] += float32(rng.NormFloat64() * 0.1)
		}
		got, _ := idx.Search(query, 8, 200)
		if err := sameResults(got, BruteForce(embs, query, 8)); err != nil {
			t.Fatal(err)
		}
	}
}
