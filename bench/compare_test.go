package main

import "testing"

func TestVerdictBounds(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "query_qps", Better: "higher", Bound: 0.10}
	steady := func(x float64) []float64 { return []float64{x, x * 1.01, x * 0.99, x, x * 1.005} }
	for _, c := range []struct {
		name     string
		def      metricDef
		old, new []float64
		want     string
	}{
		{"inside the bound", lower, steady(1), steady(1.08), noWorse},
		{"past the bound", lower, steady(1), steady(1.15), worse},
		{"faster than the bound", lower, steady(1), steady(0.8), better},
		{"higher is better: a drop is worse", higher, steady(1000), steady(850), worse},
		{"higher is better: a rise is better", higher, steady(1000), steady(1200), better},
		{"higher is better: inside the bound", higher, steady(1000), steady(950), noWorse},
		{"spread wider than the bound", lower, []float64{1, 1.3, 0.8, 1.2, 0.9}, steady(1.05), unresolved},
		{"noisy, but every new run beats every old one", lower, []float64{1, 1.3, 0.8, 1.2, 0.9}, steady(0.5), better},
		{"single runs have no spread", lower, []float64{1}, []float64{1.2}, worse},
		{"both zero", lower, []float64{0}, []float64{0}, noWorse},
	} {
		if got := verdict(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareSetsFlagsFailuresAndCounts(t *testing.T) {
	run := func(p50 float64, failed int, digest string) *result {
		return &result{Workload: "query_pg", Attempted: 100, Failed: failed,
			EndToEnd: map[string]metricValue{"query_p50_ms": {p50, "ms"}},
			Counts:   map[string]string{"ranking_digest": digest}}
	}
	old := &resultSet{Runs: []*result{run(1, 0, "aa")}}
	rows, diffs, more := compareSets(old, &resultSet{Runs: []*result{run(1.01, 0, "aa")}})
	if len(rows) != 1 || rows[0].Verdict != noWorse || len(diffs) != 0 || more {
		t.Errorf("equal sets: rows %+v diffs %v moreFailures %v", rows, diffs, more)
	}
	_, diffs, more = compareSets(old, &resultSet{Runs: []*result{run(1, 3, "bb")}})
	if len(diffs) != 1 || !more {
		t.Errorf("want one count difference and more failures, got %v %v", diffs, more)
	}
	traced := run(9, 0, "aa")
	traced.Traced = true
	rows, _, _ = compareSets(old, &resultSet{Runs: []*result{traced}})
	if len(rows) != 0 {
		t.Errorf("a traced run must not be compared with end-to-end runs, got %+v", rows)
	}
}
