package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"expertfind/internal/ctxtest"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// buildTiny builds the smallest engine worth querying, for tests that
// exercise the query layer rather than ranking quality.
func buildTiny(t *testing.T, mutate func(*Options)) (*dataset.Dataset, *Engine) {
	t.Helper()
	ds := dataset.Generate(dataset.AminerSim(120))
	opts := Options{Dim: 8, Seed: 4}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := Build(ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, e
}

func TestQueryParamBoundaries(t *testing.T) {
	_, e := buildTiny(t, nil)
	paper := e.Graph().NodesOfType(hetgraph.Paper)[0]

	cases := []struct {
		name      string
		run       func() error
		wantParam string // "" means the call must succeed
	}{
		{"experts m=0", func() error { _, _, err := e.TopExperts("q", 0, 5); return err }, "m"},
		{"experts m=-3", func() error { _, _, err := e.TopExperts("q", -3, 5); return err }, "m"},
		{"experts n=0", func() error { _, _, err := e.TopExperts("q", 5, 0); return err }, "n"},
		{"experts n=-1", func() error { _, _, err := e.TopExperts("q", 5, -1); return err }, "n"},
		{"experts m=1 n=1", func() error { _, _, err := e.TopExperts("q", 1, 1); return err }, ""},
		{"papers m=0", func() error { _, _, err := e.RetrievePapers("q", 0); return err }, "m"},
		{"papers m=-9", func() error { _, _, err := e.RetrievePapers("q", -9); return err }, "m"},
		{"papers m=1", func() error { _, _, err := e.RetrievePapers("q", 1); return err }, ""},
		{"similar m=0", func() error { _, _, err := e.SimilarPapers(paper, 0); return err }, "m"},
		{"similar m=1", func() error { _, _, err := e.SimilarPapers(paper, 1); return err }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if tc.wantParam == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var bad *BadParamError
			if !errors.As(err, &bad) {
				t.Fatalf("got %v, want *BadParamError", err)
			}
			if bad.Param != tc.wantParam {
				t.Fatalf("Param = %q, want %q", bad.Param, tc.wantParam)
			}
		})
	}
}

func TestQueryOversizedBoundsStillServed(t *testing.T) {
	_, e := buildTiny(t, nil)
	nPapers := e.Graph().NumNodesOfType(hetgraph.Paper)
	// m beyond the corpus and n beyond the author pool degrade gracefully
	// to "everything", never error.
	papers, _, err := e.RetrievePapers("graph", nPapers*10)
	if err != nil {
		t.Fatalf("oversized m: %v", err)
	}
	if len(papers) == 0 || len(papers) > nPapers {
		t.Fatalf("retrieved %d papers from a %d-paper corpus", len(papers), nPapers)
	}
	experts, _, err := e.TopExperts("graph", 20, 1<<20)
	if err != nil {
		t.Fatalf("oversized n: %v", err)
	}
	if len(experts) == 0 {
		t.Fatal("no experts for oversized n")
	}
}

func TestQueryEFEdgeValues(t *testing.T) {
	// EF below m (and negative) must be clamped by the index, not break
	// retrieval; a huge EF is just a slower exact-ish search.
	for _, ef := range []int{-5, 1, 1 << 20} {
		_, e := buildTiny(t, func(o *Options) { o.EF = ef })
		papers, st, err := e.RetrievePapers("graph embedding", 10)
		if err != nil {
			t.Fatalf("EF=%d: %v", ef, err)
		}
		if len(papers) == 0 || !st.UsedPGIndex {
			t.Fatalf("EF=%d: got %d papers, UsedPGIndex=%v", ef, len(papers), st.UsedPGIndex)
		}
	}
}

func TestQueryCtxPreCancelled(t *testing.T) {
	_, e := buildTiny(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.TopExpertsCtx(ctx, "graph", 10, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("TopExpertsCtx: got %v, want context.Canceled", err)
	}
	if _, _, err := e.RetrievePapersCtx(ctx, "graph", 10); !errors.Is(err, context.Canceled) {
		t.Errorf("RetrievePapersCtx: got %v, want context.Canceled", err)
	}
	paper := e.Graph().NodesOfType(hetgraph.Paper)[0]
	if _, _, err := e.SimilarPapersCtx(ctx, paper, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("SimilarPapersCtx: got %v, want context.Canceled", err)
	}
}

func TestQueryCtxDeadlineExceeded(t *testing.T) {
	_, e := buildTiny(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 1) // 1ns: expired on arrival
	defer cancel()
	_, _, err := e.TopExpertsCtx(ctx, "graph", 10, 5)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestExactRetrievalHonoursContext: an engine without a PG-Index polls
// the context inside its scan, not only around it, so a query cancelled at
// any point of its life returns the context's error, and one that got past
// the entry check counts as abandoned.
func TestExactRetrievalHonoursContext(t *testing.T) {
	reg := obs.NewRegistry()
	_, e := buildTiny(t, func(o *Options) {
		o.UseKPCore, o.UsePGIndex, o.Metrics = Bool(false), Bool(false), reg
	})
	abandoned := reg.Counter("expertfind_query_abandoned_total", "")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.TopExpertsCtx(cancelled, "graph", 200, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: got %v, want context.Canceled", err)
	}
	expired, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	<-expired.Done() // the runtime timer fires some time after the deadline
	if _, _, err := e.TopExpertsCtx(expired, "graph", 200, 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1us deadline: got %v, want context.DeadlineExceeded", err)
	}

	// Retrieval alone polls at entry, around the encode and after the
	// scan; anything beyond those four is the scan's own block loop.
	live := ctxtest.New(0)
	if _, _, err := e.RetrievePapersCtx(live, "graph", 200); err != nil {
		t.Fatal(err)
	}
	if live.Polls() <= 4 {
		t.Fatalf("retrieval polled its context %d times: the scan never looks", live.Polls())
	}

	live = ctxtest.New(0)
	if _, _, err := e.TopExpertsCtx(live, "graph", 200, 5); err != nil {
		t.Fatal(err)
	}
	for after := int64(1); after <= live.Polls(); after++ {
		before := abandoned.Value()
		_, _, err := e.TopExpertsCtx(ctxtest.New(after), "graph", 200, 5)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled at poll %d: got %v, want context.Canceled", after, err)
		}
		// Poll 1 is the entry check, before the query starts.
		if want := before + 1; after > 1 && abandoned.Value() != want {
			t.Fatalf("cancelled at poll %d: abandoned counter %v, want %v", after, abandoned.Value(), want)
		}
	}
}

func TestQueryCtxErrorsAreNotCached(t *testing.T) {
	_, e := buildTiny(t, nil)
	e.EnableQueryCache(CacheConfig{MaxEntries: 64})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.TopExpertsCtx(ctx, "graph", 10, 5); err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if n := e.QueryCacheLen(); n != 0 {
		t.Fatalf("failed fill was cached: %d entries", n)
	}
	// The same query with a live context must succeed and then cache.
	if _, st, err := e.TopExperts("graph", 10, 5); err != nil || st.CacheHit {
		t.Fatalf("post-cancel query: err=%v hit=%v", err, st.CacheHit)
	}
	if n := e.QueryCacheLen(); n != 1 {
		t.Fatalf("successful fill not cached: %d entries", n)
	}
}

func TestEngineCacheHitAndVariants(t *testing.T) {
	_, e := buildTiny(t, nil)
	e.EnableQueryCache(CacheConfig{MaxEntries: 64})

	first, st1, err := e.TopExperts("Graph  Embedding", 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	second, st2, err := e.TopExperts("graph embedding", 20, 5) // normalization variant
	if err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit {
		t.Fatal("normalized variant missed the cache")
	}
	if len(first) != len(second) {
		t.Fatalf("hit returned %d experts, miss returned %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("rank %d differs between miss and hit: %+v vs %+v", i, first[i], second[i])
		}
	}
	// Different bounds are a different result — never served from the
	// m=20,n=5 entry.
	if _, st3, err := e.TopExperts("graph embedding", 20, 3); err != nil || st3.CacheHit {
		t.Fatalf("different n served from cache: err=%v hit=%v", err, st3.CacheHit)
	}
	// Papers and experts for the same text are distinct entries.
	if _, st4, err := e.RetrievePapers("graph embedding", 20); err != nil || st4.CacheHit {
		t.Fatalf("papers query served from experts entry: err=%v hit=%v", err, st4.CacheHit)
	}
	if _, st5, err := e.RetrievePapers("graph embedding", 20); err != nil || !st5.CacheHit {
		t.Fatalf("repeat papers query missed: err=%v hit=%v", err, st5.CacheHit)
	}
}

func TestAddPaperInvalidatesEngineCache(t *testing.T) {
	ds, e := buildTiny(t, nil)
	e.EnableQueryCache(CacheConfig{MaxEntries: 64})
	g := ds.Graph
	existing := g.NodesOfType(hetgraph.Paper)[0]
	query := "a fresh manuscript about " + g.Label(existing)

	if _, _, err := e.RetrievePapers(query, 5); err != nil {
		t.Fatal(err)
	}
	if e.QueryCacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", e.QueryCacheLen())
	}

	id, err := e.AddPaper(NewPaper{
		Text:    query,
		Authors: g.NodesOfType(hetgraph.Author)[:1],
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.QueryCacheLen() != 0 {
		t.Fatalf("AddPaper left %d cached entries", e.QueryCacheLen())
	}

	// The re-run is a miss and must see the new paper — the cached
	// pre-update ranking would not contain it.
	papers, st, err := e.RetrievePapers(query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("post-update query served from the invalidated cache")
	}
	found := false
	for _, p := range papers {
		if p == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-update retrieval misses the new paper: %v", papers)
	}
}
