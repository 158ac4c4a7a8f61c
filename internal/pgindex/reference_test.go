package pgindex

import (
	"context"
	"math/rand"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// The functions below are the greedy search as it stood before one sorted
// pool replaced its candidate min-heap, its pool max-heap and the final
// top-m selection: frozen here as the reference Search must reproduce —
// results, distance computations, visits and expansions — on every corpus
// without distance ties. With ties the two part on purpose: this search
// settles a tie at the pool's boundary by heap layout, Search by paper id.

type distEntry struct {
	id   int32
	dist float32
}

func refHeapSearch(idx *Index, query vec.Vec32, m, ef int, multiEntry bool) ([]Result, SearchStats) {
	var st SearchStats
	n := len(idx.ids)
	if n == 0 || m <= 0 {
		return nil, st
	}
	if m > n {
		m = n
	}
	if ef < m {
		ef = 2 * m
	}
	if ef >= n {
		res, _ := Scan(context.Background(), idx.ids, idx.embs, query, m)
		st.DistanceComputations, st.NodesVisited = n, n
		return res, st
	}
	visited := make([]bool, n)
	var cand, pool []distEntry
	push := func(i int32) {
		if visited[i] {
			return
		}
		visited[i] = true
		d := vec.L2Sq32(idx.embs.Row(int(i)), query)
		st.DistanceComputations++
		st.NodesVisited++
		if len(pool) < ef {
			heapPushMin(&cand, distEntry{i, d})
			heapPushMax(&pool, distEntry{i, d})
		} else if d < pool[0].dist {
			heapPushMin(&cand, distEntry{i, d})
			heapPopMax(&pool)
			heapPushMax(&pool, distEntry{i, d})
		}
	}
	push(idx.nav)
	if multiEntry {
		for _, e := range idx.entries {
			push(e)
		}
	}
	for len(cand) > 0 {
		cur := heapPopMin(&cand)
		if len(pool) >= ef && cur.dist > pool[0].dist {
			break
		}
		st.Expansions++
		for _, nb := range idx.nbrs[cur.id] {
			push(nb)
		}
	}
	t := newTopM(m)
	for _, e := range pool {
		t.offer(e.dist, idx.ids[e.id])
	}
	return t.results(), st
}

func heapPushMin(h *[]distEntry, e distEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func heapPopMin(h *[]distEntry) distEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && s[l].dist < s[sm].dist {
			sm = l
		}
		if r < n && s[r].dist < s[sm].dist {
			sm = r
		}
		if sm == i {
			break
		}
		s[i], s[sm] = s[sm], s[i]
		i = sm
	}
	*h = s
	return top
}

func heapPushMax(h *[]distEntry, e distEntry) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist >= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

func heapPopMax(h *[]distEntry) distEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		lg := i
		if l < n && s[l].dist > s[lg].dist {
			lg = l
		}
		if r < n && s[r].dist > s[lg].dist {
			lg = r
		}
		if lg == i {
			break
		}
		s[i], s[lg] = s[lg], s[i]
		i = lg
	}
	*h = s
	return top
}

// tieFree reports whether no two rows of idx lie at the same squared
// distance from q.
func tieFree(idx *Index, q vec.Vec32) bool {
	seen := map[float32]bool{}
	for i := 0; i < idx.Len(); i++ {
		d := vec.L2Sq32(idx.embs.Row(i), q)
		if seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// TestSearchMatchesHeapReference holds Search to the two-heap search it
// replaced on corpora without distance ties: the same papers at the same
// distance bits, the same distance computations, visits and expansions,
// for pools from m to one short of the corpus and both entry strategies.
func TestSearchMatchesHeapReference(t *testing.T) {
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
			if !tieFree(idx, query) {
				t.Fatalf("%s query %d: the corpus has a distance tie", name, q)
			}
			for _, m := range []int{1, 10, 200} {
				for _, ef := range []int{0, m, 2 * m, 400, n - 1} {
					for _, multi := range []bool{true, false} {
						got, gst := idx.SearchEx(query, m, ef, multi)
						want, wst := refHeapSearch(idx, query, m, ef, multi)
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

// FuzzSearchMatchesReference holds Search to the naive canonical-order
// walk on generated corpora, duplicated rows and integer grids included,
// so ties occur at every rank. A pool that covers the corpus takes the
// exhaustive path, which must equal the sort-everything reference.
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
