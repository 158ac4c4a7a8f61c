package pgindex

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// indexFingerprint captures everything search behaviour depends on.
func indexFingerprint(idx *Index) (nav int32, nbrs [][]int32, entries []int32) {
	return idx.nav, idx.nbrs, idx.entries
}

func TestBuildDeterministicAcrossRuns(t *testing.T) {
	embs := clusteredEmbeddings(rand.New(rand.NewSource(3)), 6, 40, 16)
	cfg := Config{Refine: true, Seed: 42}
	a := build(embs, cfg)
	b := build(embs, cfg)
	an, ae, ax := indexFingerprint(a)
	bn, be, bx := indexFingerprint(b)
	if an != bn || !reflect.DeepEqual(ae, be) || !reflect.DeepEqual(ax, bx) {
		t.Fatal("two builds with the same seed differ")
	}
	// The join and the refine run on GOMAXPROCS goroutines; their count
	// must not show in the graph.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		cn, ce, cx := indexFingerprint(build(embs, cfg))
		if cn != an || !reflect.DeepEqual(ce, ae) || !reflect.DeepEqual(cx, ax) {
			t.Fatalf("the build at GOMAXPROCS %d differs", procs)
		}
	}
}

func TestBuildWithRandMatchesBuild(t *testing.T) {
	// The one pin on bench/'s map path: BuildWithRand over a map of row
	// views must build the index FromRows + BuildGraph builds over the
	// same rows with an equally seeded rng — nav, neighbour lists and
	// entries alike.
	ids, rows, _ := scanCorpus(5, 200, 16, false)
	cfg := Config{Refine: true, Seed: 7}
	a := FromRows(ids, rows)
	a.BuildGraph(cfg, rand.New(rand.NewSource(cfg.Seed)))
	b := BuildWithRand(rowMap(ids, rows), cfg, rand.New(rand.NewSource(cfg.Seed)))
	an, ae, ax := indexFingerprint(a)
	bn, be, bx := indexFingerprint(b)
	if an != bn || !reflect.DeepEqual(ae, be) || !reflect.DeepEqual(ax, bx) {
		t.Fatal("BuildWithRand(map) differs from FromRows + BuildGraph over the same rows")
	}
	if gotIDs, gotRows := b.Rows(); !reflect.DeepEqual(gotIDs, ids) || !reflect.DeepEqual(gotRows.Data, rows.Data) {
		t.Fatal("BuildWithRand(map) holds other rows than the map's, ascending")
	}
}

func TestBuildSeedChangesInitialisation(t *testing.T) {
	// Different seeds must actually reach the rng (guards against a
	// regression to the global math/rand source, which would make the seed
	// a no-op and shard rebuilds nondeterministic).
	embs := randomEmbeddings(rand.New(rand.NewSource(9)), 300, 8)
	a := build(embs, Config{Refine: false, MaxIters: 1, Seed: 1})
	b := build(embs, Config{Refine: false, MaxIters: 1, Seed: 2})
	_, ae, _ := indexFingerprint(a)
	_, be, _ := indexFingerprint(b)
	if reflect.DeepEqual(ae, be) {
		t.Fatal("seed does not influence kNN initialisation")
	}
}
