package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
)

// buildObserved builds a small engine recording into a private registry.
func buildObserved(t *testing.T) (*Engine, *obs.Registry, *dataset.Dataset) {
	t.Helper()
	reg := obs.NewRegistry()
	ds := dataset.Generate(dataset.AminerSim(200))
	e, err := Build(ds.Graph, Options{Dim: 16, Seed: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e, reg, ds
}

// stageSum reads the recorded duration of one span path from the
// registry, in seconds.
func stageSum(reg *obs.Registry, stage string) float64 {
	return reg.Histogram("expertfind_stage_seconds", "", nil, obs.L("stage", stage)).Sum()
}

// TestBuildStatsDerivedFromSpans checks that the phase timings the public
// BuildStats API reports are exactly what the build spans recorded into
// the registry — the old hand-rolled time.Since bookkeeping and the new
// span layer must not drift apart.
func TestBuildStatsDerivedFromSpans(t *testing.T) {
	e, reg, _ := buildObserved(t)
	st := e.Stats()

	for _, c := range []struct {
		stage string
		field time.Duration
	}{
		{"build/sampling", st.CommunityTime},
		{"build/training", st.TrainTime},
		{"build/embedding", st.EmbedTime},
		{"build/indexing", st.IndexTime},
		{"build", st.TotalTime},
	} {
		if c.field <= 0 {
			t.Errorf("stage %s: zero duration in BuildStats", c.stage)
		}
		got := stageSum(reg, c.stage)
		if math.Abs(got-c.field.Seconds()) > 1e-9 {
			t.Errorf("stage %s: registry %.9fs, BuildStats %.9fs", c.stage, got, c.field.Seconds())
		}
	}
	// The named phases never exceed the whole build.
	phases := st.CommunityTime + st.TrainTime + st.EmbedTime + st.IndexTime
	if phases > st.TotalTime {
		t.Errorf("phases sum %v exceeds total %v", phases, st.TotalTime)
	}
	// What precedes sampling is three stages of its own — the ones the
	// benchmark's staged replay times — and the seven together are the
	// build: what no span covers is bookkeeping between them.
	covered := phases.Seconds()
	for _, stage := range []string{"build/vocab", "build/pretrain", "build/tokencache"} {
		d := stageSum(reg, stage)
		if d <= 0 {
			t.Errorf("stage %s: not recorded", stage)
		}
		covered += d
	}
	if total := st.TotalTime.Seconds(); covered > total || covered < 0.8*total {
		t.Errorf("the seven stages cover %.4fs of a %.4fs build", covered, total)
	}
	if got := reg.Counter("expertfind_builds_total", "").Value(); got != 1 {
		t.Errorf("builds counter = %v", got)
	}
	if got := reg.Counter("expertfind_build_papers_embedded_total", "").Value(); got != 200 {
		t.Errorf("papers embedded counter = %v, want 200", got)
	}
}

// TestQueryStatsSpanConsistency pins the QueryStats contract: Total() is
// the sum of the per-stage durations, and each stage duration equals the
// span duration recorded into the registry.
func TestQueryStatsSpanConsistency(t *testing.T) {
	e, reg, ds := buildObserved(t)
	_, st, _ := e.TopExperts(ds.Corpus()[0][:40], 50, 10)

	if st.Total() != st.EncodeTime+st.RetrieveTime+st.RankTime {
		t.Errorf("Total %v != %v + %v + %v", st.Total(), st.EncodeTime, st.RetrieveTime, st.RankTime)
	}
	for _, c := range []struct {
		stage string
		field time.Duration
	}{
		{"query/encode", st.EncodeTime},
		{"query/retrieve", st.RetrieveTime},
		{"query/rank", st.RankTime},
	} {
		got := stageSum(reg, c.stage)
		if math.Abs(got-c.field.Seconds()) > 1e-9 {
			t.Errorf("stage %s: registry %.9fs, QueryStats %.9fs", c.stage, got, c.field.Seconds())
		}
	}
	// The query histogram saw exactly this one query, with the same total.
	h := reg.Histogram("expertfind_query_seconds", "", nil)
	if h.Count() != 1 {
		t.Fatalf("query histogram count = %d, want 1", h.Count())
	}
	if math.Abs(h.Sum()-st.Total().Seconds()) > 1e-9 {
		t.Errorf("query histogram sum %.9fs, Total %.9fs", h.Sum(), st.Total().Seconds())
	}
	if got := reg.Counter("expertfind_queries_total", "").Value(); got != 1 {
		t.Errorf("queries counter = %v, want 1", got)
	}
}

// TestSimilarPapersErrors pins the sentinel error /similar maps to an HTTP
// status.
func TestSimilarPapersErrors(t *testing.T) {
	e, _, _ := buildObserved(t)
	if _, _, err := e.SimilarPapers(999999, 5); err != ErrUnknownPaper {
		t.Errorf("unknown id: %v", err)
	}
}

// TestSimilarPapersExactEngine holds /similar on an engine without a
// PG-Index to the retrieval that engine uses for every other query: the
// exact top-(m+1) over its embeddings minus the paper itself — which is also,
// id for id, what an indexed engine over the same embeddings answers once
// its pool covers the corpus.
func TestSimilarPapersExactEngine(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	build := func(usePG bool) *Engine {
		// EF beyond the corpus: the indexed engine searches exhaustively.
		e, err := Build(ds.Graph, Options{Dim: 16, Seed: 9, EF: 1 << 20, UseKPCore: Bool(false),
			UsePGIndex: Bool(usePG), Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exact, indexed := build(false), build(true)
	if _, _, err := exact.SimilarPapers(999999, 5); err != ErrUnknownPaper {
		t.Errorf("unknown id on an exact engine: %v", err)
	}
	const m = 7
	papers := ds.Graph.NodesOfType(hetgraph.Paper)
	for _, id := range []hetgraph.NodeID{papers[0], papers[len(papers)/2], papers[len(papers)-1]} {
		scanned := pgindex.BruteForce(exact.Embeddings, exact.Embeddings[id], m+1)
		var want []hetgraph.NodeID
		for _, r := range scanned {
			if r.ID != id && len(want) < m {
				want = append(want, r.ID)
			}
		}
		got, st, err := exact.SimilarPapers(id, m)
		if err != nil || st.UsedPGIndex || !slices.Equal(got, want) {
			t.Fatalf("similar(%d) on the exact engine: %v (index used: %v, err %v), scan says %v",
				id, got, st.UsedPGIndex, err, want)
		}
		got, st, err = indexed.SimilarPapers(id, m)
		if err != nil || !st.UsedPGIndex || !slices.Equal(got, want) {
			t.Fatalf("similar(%d) on the indexed engine: %v (index used: %v, err %v), scan says %v",
				id, got, st.UsedPGIndex, err, want)
		}
	}
}
