package pgindex

import (
	"math/rand"
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
