package pgindex

import (
	"math"
	"math/rand"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// requireSameResults asserts two result lists are identical: same IDs in
// the same order with bit-identical distances.
func requireSameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result sizes differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("%s: rank %d: id %d vs %d", label, i, a[i].ID, b[i].ID)
		}
		if math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			t.Fatalf("%s: rank %d: dist bits differ: %v vs %v", label, i, a[i].Dist, b[i].Dist)
		}
	}
}

// TestExactVsQuantizedSearch builds the same corpus twice — once with the
// int8 candidate-scoring fast path, once exact-only — and demands
// bit-identical results across query shapes and ef settings. The exact
// re-rank of the candidate pool is what makes this hold: quantization may
// only change which nodes get explored, never the reported distances, and
// with enough exploration both paths converge on the true top-m.
func TestExactVsQuantizedSearch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corpus  func(*rand.Rand) map[hetgraph.NodeID]vec.Vec32
		m, ef   int
		queries int
	}{
		{"random-exhaustive", func(r *rand.Rand) map[hetgraph.NodeID]vec.Vec32 { return randomEmbeddings(r, 120, 16) }, 10, 0, 20},
		{"random-wide-ef", func(r *rand.Rand) map[hetgraph.NodeID]vec.Vec32 { return randomEmbeddings(r, 300, 16) }, 10, 128, 20},
		{"clustered-wide-ef", func(r *rand.Rand) map[hetgraph.NodeID]vec.Vec32 { return clusteredEmbeddings(r, 20, 15, 12) }, 15, 128, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			embs := tc.corpus(rng)
			quant := Build(embs, Config{Refine: true, Seed: 4})
			exact := Build(embs, Config{Refine: true, Seed: 4, ExactOnly: true})
			if quant.quant == nil || exact.quant != nil {
				t.Fatal("quantization mode not wired through Config")
			}
			// Same graph either way: Build always uses exact distances.
			if quant.NumEdges() != exact.NumEdges() || quant.NavigatingNode() != exact.NavigatingNode() {
				t.Fatal("graphs differ between quantized and exact builds")
			}
			for q := 0; q < tc.queries; q++ {
				query := embs[hetgraph.NodeID(rng.Intn(len(embs)))].Clone()
				for j := range query {
					query[j] += float32(rng.NormFloat64() * 0.05)
				}
				a, _ := quant.Search(query, tc.m, tc.ef)
				b, _ := exact.Search(query, tc.m, tc.ef)
				requireSameResults(t, tc.name, a, b)
			}
		})
	}
}

// TestExactVsQuantizedTieOrder forces exact ties with duplicated
// embeddings; both modes must break them identically (ascending NodeID).
func TestExactVsQuantizedTieOrder(t *testing.T) {
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
	quant := Build(embs, Config{Refine: true, Seed: 2})
	exact := Build(embs, Config{Refine: true, Seed: 2, ExactOnly: true})
	for p := 0; p < 5; p++ {
		a, _ := quant.Search(proto[p], 12, 0)
		b, _ := exact.Search(proto[p], 12, 0)
		requireSameResults(t, "ties", a, b)
		// The ten exact duplicates lead, in ascending id order.
		for i := 0; i < 10; i++ {
			want := hetgraph.NodeID(p + 5*i)
			if a[i].ID != want || a[i].Dist != 0 {
				t.Fatalf("prototype %d rank %d = %v, want id %d dist 0", p, i, a[i], want)
			}
		}
	}
}

// TestQuantizedMatchesBruteForce checks the quantized index against the
// float oracle directly on the exhaustive path (ef >= corpus), where
// results must be exactly the true top-m.
func TestQuantizedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	embs := randomEmbeddings(rng, 90, 12)
	idx := Build(embs, Config{Refine: true, Seed: 6})
	for q := 0; q < 15; q++ {
		query := embs[hetgraph.NodeID(rng.Intn(len(embs)))].Clone()
		for j := range query {
			query[j] += float32(rng.NormFloat64() * 0.1)
		}
		got, _ := idx.Search(query, 8, 200)
		want := BruteForce(embs, query, 8)
		if len(got) != len(want) {
			t.Fatalf("sizes differ: %d vs %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("rank %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestInsertFindableExactOnly mirrors TestInsertFindable with the
// quantized fast path disabled, covering the exact traversal branch.
func TestInsertFindableExactOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	embs := randomEmbeddings(rng, 100, 8)
	idx := Build(embs, Config{Refine: true, Seed: 1, ExactOnly: true})
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
}

// TestExactOnlySurvivesSerialization checks the mode round-trips through
// Columns/FromColumns, that a quantized index keeps its codes across a
// reload, and that a reload without the quant columns re-codes to the
// same bytes.
func TestExactOnlySurvivesSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	embs := randomEmbeddings(rng, 60, 8)
	for _, exactOnly := range []bool{false, true} {
		idx := Build(embs, Config{Refine: true, Seed: 2, ExactOnly: exactOnly})
		loaded := reload(t, idx)
		if !exactOnly {
			c := idx.Columns()
			c.QCodes, c.QScales, c.QNorms = nil, nil, nil
			recoded, err := FromColumns(c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range idx.quant.Codes {
				if idx.quant.Codes[i] != recoded.quant.Codes[i] {
					t.Fatal("codes rebuilt without the quant columns differ from originals")
				}
			}
		}
		if loaded.exactOnly != exactOnly {
			t.Fatalf("exactOnly=%v lost in round trip", exactOnly)
		}
		if exactOnly && loaded.quant != nil {
			t.Fatal("exact-only index rebuilt quantized codes")
		}
		if !exactOnly {
			if loaded.quant == nil {
				t.Fatal("quantized codes lost on load")
			}
			for i := range idx.quant.Codes {
				if idx.quant.Codes[i] != loaded.quant.Codes[i] {
					t.Fatal("loaded codes differ from originals")
				}
			}
		}
		q := embs[hetgraph.NodeID(3)]
		a, _ := idx.Search(q, 5, 0)
		b, _ := loaded.Search(q, 5, 0)
		requireSameResults(t, "roundtrip", a, b)
	}
}
