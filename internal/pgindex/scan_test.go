package pgindex

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"expertfind/internal/ctxtest"
	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// scanCorpus generates n rows of the given width with non-dense ascending
// ids. About one row in ten repeats an earlier row, and grid corpora draw
// coordinates from five small integers, so equal distances — and with them
// the id tie-break — occur at every rank rather than only by accident.
func scanCorpus(seed int64, n, dim int, grid bool) ([]hetgraph.NodeID, *vec.Matrix32, vec.Vec32) {
	rng := rand.New(rand.NewSource(seed))
	draw := func() float32 {
		if grid {
			return float32(rng.Intn(5) - 2)
		}
		return float32(rng.NormFloat64())
	}
	ids := make([]hetgraph.NodeID, n)
	rows := vec.NewMatrix32(n, dim)
	next := hetgraph.NodeID(rng.Intn(7))
	for i := 0; i < n; i++ {
		ids[i] = next
		next += hetgraph.NodeID(1 + rng.Intn(3))
		if i > 0 && rng.Intn(10) == 0 {
			copy(rows.Row(i), rows.Row(rng.Intn(i)))
			continue
		}
		for j := 0; j < dim; j++ {
			rows.Set(i, j, draw())
		}
	}
	q := vec.New32(dim)
	for j := range q {
		q[j] = draw()
	}
	return ids, rows, q
}

// sortEverything is the reference the selector is judged against: score
// every row, sort the lot by (distance, id), cut at m.
func sortEverything(ids []hetgraph.NodeID, rows *vec.Matrix32, q vec.Vec32, m int) []Result {
	all := []Result{}
	for i, id := range ids {
		all = append(all, Result{ID: id, Dist: math.Sqrt(float64(vec.L2Sq32(rows.Row(i), q)))})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > m {
		all = all[:m]
	}
	return all
}

func sameResults(got, want []Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("rank %d: got (%d, %x), want (%d, %x)", i,
				got[i].ID, math.Float64bits(got[i].Dist), want[i].ID, math.Float64bits(want[i].Dist))
		}
	}
	return nil
}

// rowMap is the map form BruteForce takes.
func rowMap(ids []hetgraph.NodeID, rows *vec.Matrix32) map[hetgraph.NodeID]vec.Vec32 {
	embs := make(map[hetgraph.NodeID]vec.Vec32, len(ids))
	for i, id := range ids {
		embs[id] = rows.Row(i)
	}
	return embs
}

// checkScan holds the flat scan and the map oracle to the sort-everything
// reference.
func checkScan(t *testing.T, ids []hetgraph.NodeID, rows *vec.Matrix32, q vec.Vec32, m int) {
	t.Helper()
	want := sortEverything(ids, rows, q, m)
	got, err := Scan(context.Background(), ids, rows, q, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResults(got, want); err != nil {
		t.Fatalf("scan m=%d: %v", m, err)
	}
	if err := sameResults(BruteForce(rowMap(ids, rows), q, m), want); err != nil {
		t.Fatalf("BruteForce m=%d: %v", m, err)
	}
}

// TestScanEquivalence is the generated differential suite: corpus sizes
// around the heap bound, every kernel tail width, duplicated rows, and m
// at, below and beyond n.
func TestScanEquivalence(t *testing.T) {
	const m0 = 10
	for _, n := range []int{0, 1, m0 - 1, m0, m0 + 1, 5000} {
		for _, dim := range []int{1, 7, 64} {
			ids, rows, q := scanCorpus(int64(n*100+dim), n, dim, dim == 7)
			for _, m := range []int{1, m0, n, n + 7} {
				checkScan(t, ids, rows, q, m)
			}
		}
	}
	for dim := 1; dim <= 67; dim++ {
		ids, rows, q := scanCorpus(int64(dim), 300, dim, dim%2 == 0)
		checkScan(t, ids, rows, q, 25)
	}
}

// TestScanEquivalenceIndex covers the index's exhaustive path: with
// ef >= Len() a search must select exactly what the scan, the map oracle
// and the reference select.
func TestScanEquivalenceIndex(t *testing.T) {
	for _, tc := range []struct{ n, dim int }{{1, 3}, {11, 5}, {600, 13}, {2500, 32}} {
		ids, rows, q := scanCorpus(int64(tc.n+tc.dim), tc.n, tc.dim, tc.dim == 13)
		idx := Build(rowMap(ids, rows), Config{K: 4, MaxIters: 2, Seed: 1})
		for _, m := range []int{1, 10, tc.n, tc.n + 7} {
			want := sortEverything(ids, rows, q, m)
			got, _ := idx.Search(q, m, tc.n+7)
			if err := sameResults(got, want); err != nil {
				t.Fatalf("n=%d m=%d Index.Search: %v", tc.n, m, err)
			}
			checkScan(t, idx.ids, idx.embs, q, m)
		}
	}
}

// FuzzScanEquivalence lets the fuzzer pick the corpus shape and the bound.
func FuzzScanEquivalence(f *testing.F) {
	for _, n := range []uint16{0, 1, 9, 10, 11, 5000} {
		f.Add(int64(n), n, uint8(n%67), uint16(10))
		f.Add(int64(n)+1, n, uint8(63), n+7)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dim uint8, m uint16) {
		ids, mat, q := scanCorpus(seed, int(n)%6000, int(dim)%67+1, seed%2 == 0)
		checkScan(t, ids, mat, q, int(m))
	})
}

func TestScanPollsContextPerBlock(t *testing.T) {
	const n = 5 * scanBlock
	ids, rows, q := scanCorpus(1, n, 4, false)
	// A live context is polled once per block of rows.
	live := ctxtest.New(0)
	if _, err := Scan(live, ids, rows, q, 10); err != nil {
		t.Fatal(err)
	}
	if got := live.Polls(); got < n/scanBlock {
		t.Fatalf("%d context polls over %d blocks", got, n/scanBlock)
	}
	// One that dies mid-scan stops it with the context's error.
	dying := ctxtest.New(3)
	if res, err := Scan(dying, ids, rows, q, 10); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("got %d results, err %v; want context.Canceled", len(res), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Scan(ctx, ids, rows, q, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Scan: %v", err)
	}
}

var scanSink []Result

// BenchmarkScan reports the scan's bandwidth at the bench workloads' sizes
// (a 1500-row shard, the 20 000-row query_exact corpus) and beyond.
func BenchmarkScan(b *testing.B) {
	for _, n := range []int{1500, 20000, 131072, 1000000} {
		ids, rows, q := scanCorpus(1, n, 64, false)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(rows.Data) * 4))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scanSink, _ = Scan(context.Background(), ids, rows, q, 200)
			}
		})
	}
}
