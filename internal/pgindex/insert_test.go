package pgindex

import (
	"math/rand"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

func TestInsertIntoEmptyIndex(t *testing.T) {
	idx := Build(map[hetgraph.NodeID]vec.Vec32{}, Config{Refine: true})
	if err := idx.Insert(5, vec.Vec32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1 || idx.NavigatingNode() != 5 {
		t.Fatalf("empty-insert state: len %d, nav %d", idx.Len(), idx.NavigatingNode())
	}
	res, _ := idx.Search(vec.Vec32{1, 0}, 1, 0)
	if len(res) != 1 || res[0].ID != 5 {
		t.Errorf("search after first insert = %v", res)
	}
}

func TestInsertFindable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	embs := randomEmbeddings(rng, 100, 8)
	idx := Build(embs, Config{Refine: true, Seed: 1})

	// Insert 30 new points; each must be retrievable as its own nearest
	// neighbour afterwards.
	for i := 0; i < 30; i++ {
		id := hetgraph.NodeID(1000 + i)
		v := vec.New32(8)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		v.Normalize()
		if err := idx.Insert(id, v); err != nil {
			t.Fatal(err)
		}
		res, _ := idx.Search(v, 1, 0)
		if len(res) != 1 || res[0].ID != id {
			t.Fatalf("insert %d not retrievable: got %v", id, res)
		}
	}
	if idx.Len() != 130 {
		t.Fatalf("len = %d, want 130", idx.Len())
	}

	// All nodes remain reachable from the navigating node.
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
		t.Errorf("only %d/%d reachable after inserts", len(visited), idx.Len())
	}
}

func TestInsertRejectsDuplicatesAndBadDims(t *testing.T) {
	idx := Build(map[hetgraph.NodeID]vec.Vec32{1: {1, 0}, 4: {0, 1}}, Config{Refine: true})
	if err := idx.Insert(4, vec.Vec32{0, 1}); err == nil {
		t.Error("duplicate id accepted")
	}
	// Ids only grow: one below the last would break the binary search
	// that maps a paper to its row.
	if err := idx.Insert(2, vec.Vec32{0, 1}); err == nil {
		t.Error("id below the last indexed one accepted")
	}
	if err := idx.Insert(2, vec.Vec32{0, 1, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestInsertDuplicateGeometry(t *testing.T) {
	// Exact duplicate vectors can occlude everything; the node must still
	// become reachable.
	idx := Build(map[hetgraph.NodeID]vec.Vec32{1: {1, 0}, 2: {0, 1}, 3: {1, 1}}, Config{Refine: true})
	if err := idx.Insert(9, vec.Vec32{1, 0}); err != nil {
		t.Fatal(err)
	}
	res, _ := idx.Search(vec.Vec32{1, 0}, 2, 0)
	found := false
	for _, r := range res {
		if r.ID == 9 {
			found = true
		}
	}
	if !found {
		t.Errorf("duplicate-vector insert unreachable: %v", res)
	}
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	embs := clusteredEmbeddings(rng, 8, 10, 6)
	idx := Build(embs, Config{Refine: true, Seed: 2})

	loaded := reload(t, idx)
	if loaded.Len() != idx.Len() || loaded.NavigatingNode() != idx.NavigatingNode() ||
		loaded.NumEdges() != idx.NumEdges() {
		t.Fatal("shape changed after round trip")
	}
	// Identical search results.
	for i := 0; i < 10; i++ {
		q := embs[hetgraph.NodeID(rng.Intn(len(embs)))]
		a, _ := idx.Search(q, 5, 0)
		b, _ := loaded.Search(q, 5, 0)
		if len(a) != len(b) {
			t.Fatal("result sizes differ")
		}
		for j := range a {
			if a[j].ID != b[j].ID {
				t.Fatalf("result %d differs: %v vs %v", j, a[j], b[j])
			}
		}
	}
	// A loaded index accepts inserts.
	if err := loaded.Insert(hetgraph.NodeID(5000), embs[loaded.NavigatingNode()].Clone()); err != nil {
		t.Fatal(err)
	}
}
