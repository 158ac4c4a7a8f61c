package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/ta"
)

// micro is small enough that every experiment finishes in seconds.
var micro = Scale{Papers: 150, Queries: 5, M: 30, N: 10, Dim: 16, Seed: 7}

func TestRunTable2ShapesAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	res := RunTable2(micro)
	if len(res) != 3 {
		t.Fatalf("datasets = %d, want 3", len(res))
	}
	for _, r := range res {
		if len(r.Rows) != 8 { // 7 baselines + ours
			t.Fatalf("%s: %d rows, want 8", r.Dataset, len(r.Rows))
		}
		for _, row := range r.Rows {
			if row.MAP < 0 || row.MAP > 1 || row.P5 < 0 || row.P5 > 1 {
				t.Errorf("%s/%s: metrics out of range: %+v", r.Dataset, row.Method, row)
			}
		}
	}
	out := FormatTable2(res)
	for _, want := range []string{"TABLE II", "Aminer", "DBLP", "ACM", "Ours", "TFIDF"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q", want)
		}
	}
}

func TestRunTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	cases := RunTable3(micro)
	if len(cases) != 4 { // 2 queries x 2 methods
		t.Fatalf("cases = %d, want 4", len(cases))
	}
	for _, c := range cases {
		if len(c.Experts) == 0 || len(c.Experts) > 5 {
			t.Errorf("%s: %d experts", c.Method, len(c.Experts))
		}
	}
	if out := FormatTable3(cases); !strings.Contains(out, "TABLE III") {
		t.Error("format missing header")
	}
}

func TestRunTable5StrategiesOrdered(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunTable5(micro)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 strategies", len(rows))
	}
	for _, r := range rows {
		if r.Triples == 0 {
			t.Errorf("%s: no triples", r.Strategy)
		}
		if r.TrainTime <= 0 {
			t.Errorf("%s: no training time", r.Strategy)
		}
	}
	// Near(1:4) must use more triples than Near(1:1).
	if rows[1].Triples >= rows[4].Triples {
		t.Errorf("triples not increasing with s: 1:1=%d, 1:4=%d", rows[1].Triples, rows[4].Triples)
	}
	if out := FormatTable5(rows); !strings.Contains(out, "Near (1:3)") {
		t.Error("format missing strategy row")
	}
}

func TestRunTable6Monotone(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunTable6(Scale{Papers: 300, Dim: 16, Seed: 7})
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 corpora", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Papers > rows[i-1].Papers {
			t.Error("corpora not shrinking")
		}
	}
	// Memory should shrink with corpus size (G vs G4 at least 2x).
	if rows[0].MemoryBytes <= rows[4].MemoryBytes {
		t.Errorf("memory not monotone: G=%d, G4=%d", rows[0].MemoryBytes, rows[4].MemoryBytes)
	}
	// The counts themselves: the index a corpus gets is fixed by its rows
	// and the seed.
	wantEdges := []int{1420, 1108, 507, 240, 107}
	wantBytes := []int64{26080, 20752, 10188, 5040, 2468}
	for i, r := range rows {
		if r.IndexEdges != wantEdges[i] || r.MemoryBytes != wantBytes[i] {
			t.Errorf("%s: %d index edges, %d bytes; want %d, %d",
				r.Name, r.IndexEdges, r.MemoryBytes, wantEdges[i], wantBytes[i])
		}
	}
	if out := FormatTable6(rows); !strings.Contains(out, "TABLE VI") {
		t.Error("format missing header")
	}
}

func TestRunFig8dPrecisionDecreasesWithN(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunFig8d(micro)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// P@n at n=5 must exceed P@n at n=100 (the paper's Figure 8(d) shape).
	if rows[0].PAtN <= rows[len(rows)-1].PAtN {
		t.Errorf("P@5=%.3f not greater than P@100=%.3f", rows[0].PAtN, rows[len(rows)-1].PAtN)
	}
}

func TestRunCoreSearchComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunCoreSearchComparison(Scale{Papers: 300, Seed: 7}, 4, 8)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// All three algorithms must agree on average core size.
	if rows[0].AvgCore != rows[1].AvgCore || rows[1].AvgCore != rows[2].AvgCore {
		t.Errorf("algorithms disagree: %+v", rows)
	}
	// The naive projection must be slower than Algorithm 1.
	if rows[0].AvgTime >= rows[2].AvgTime {
		t.Errorf("Algorithm 1 (%v) not faster than naive (%v)", rows[0].AvgTime, rows[2].AvgTime)
	}
}

func TestEvaluateEmptyQuerySet(t *testing.T) {
	eff := Evaluate(fakeSystem{}, nil, nil, 10, 5, nil)
	if eff.Method != "fake" {
		t.Error("method name lost")
	}
	if eff.MAP != 0 || eff.AvgMs != 0 {
		t.Errorf("empty evaluation non-zero: %+v", eff)
	}
}

// TestEvaluateQueryTimeFullResolution: AvgMs is the mean query time at
// the clock's resolution, not the total floored to whole milliseconds
// and then divided.
func TestEvaluateQueryTimeFullResolution(t *testing.T) {
	const sleep = 1500 * time.Microsecond
	queries := make([]dataset.Query, 3)
	eff := Evaluate(fakeSystem{sleep: sleep}, nil, queries, 10, 5, nil)
	if least := float64(sleep) / float64(time.Millisecond); eff.AvgMs < least {
		t.Errorf("AvgMs %.6f below the %.3f ms every query sleeps", eff.AvgMs, least)
	}
	if total := eff.AvgMs * float64(len(queries)); total == math.Trunc(total) {
		t.Errorf("AvgMs × %d queries = %v ms, a whole number: the total was truncated", len(queries), total)
	}
}

// fakeSystem returns no experts, after sleeping for sleep.
type fakeSystem struct{ sleep time.Duration }

func (fakeSystem) Name() string { return "fake" }
func (f fakeSystem) TopExperts(string, int, int) []ta.Ranking {
	time.Sleep(f.sleep)
	return nil
}

func TestRunTable1(t *testing.T) {
	rows := RunTable1(micro)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Papers != micro.Papers || r.Experts == 0 || r.Relations == 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if !strings.Contains(FormatTable1(rows), "TABLE I") {
		t.Error("format missing header")
	}
}

func TestRunFig5RefinementReducesWork(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunFig5(Scale{Papers: 300, Queries: 10, Dim: 16, Seed: 7})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	raw, refined := rows[0], rows[1]
	// The work and recall themselves, as expansions / visited /
	// dist-comps / recall averaged over the ten queries.
	for _, c := range []struct {
		got  Fig5Row
		want [4]float64
	}{
		{raw, [4]float64{31.4, 127.2, 127.2, 0.92}},
		{refined, [4]float64{31.3, 124.6, 124.6, 0.93}},
	} {
		got := [4]float64{c.got.AvgExpansions, c.got.AvgVisited, c.got.AvgDistComps, c.got.Recall}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-9 {
				t.Errorf("%s: %v, want %v", c.got.Index, got, c.want)
				break
			}
		}
	}
	if refined.Recall < 0.8 {
		t.Errorf("refined recall %.3f too low", refined.Recall)
	}
	// The refinement exists to cut search work (Figure 5's claim); allow
	// slack for the stratified entry points shared by both variants.
	if refined.AvgDistComps > raw.AvgDistComps*1.25 {
		t.Errorf("refined index does more work: %.1f vs %.1f dist comps",
			refined.AvgDistComps, raw.AvgDistComps)
	}
	if !strings.Contains(FormatFig5(rows), "FIGURE 5") {
		t.Error("format missing header")
	}
}

func TestRunSignificanceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness in -short mode")
	}
	rows := RunSignificance(Scale{Papers: 250, Queries: 12, M: 40, N: 10, Dim: 16, Seed: 7})
	if len(rows) != 6 { // 2 baselines x 3 datasets
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		res := r.Result
		if res.Iterations != 10000 {
			t.Errorf("%s/%s: iterations = %d", r.Dataset, r.Baseline, res.Iterations)
		}
		if !(res.CILow <= res.MeanDiff && res.MeanDiff <= res.CIHigh) {
			t.Errorf("%s/%s: CI [%v,%v] excludes mean %v",
				r.Dataset, r.Baseline, res.CILow, res.CIHigh, res.MeanDiff)
		}
		if res.PValue < 0 || res.PValue > 1 {
			t.Errorf("%s/%s: p = %v", r.Dataset, r.Baseline, res.PValue)
		}
	}
	if !strings.Contains(FormatSignificance(rows), "SIGNIFICANCE") {
		t.Error("format missing header")
	}
}
