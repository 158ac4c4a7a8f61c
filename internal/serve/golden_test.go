package serve

import (
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// goldenServer builds a server over its own engine and registry, so the
// scripted counter assertions below are not polluted by the shared
// server other tests use.
func goldenServer(t *testing.T) (*Server, *core.Engine, *dataset.Dataset, *obs.Registry) {
	t.Helper()
	ds := dataset.Generate(dataset.AminerSim(200))
	reg := obs.NewRegistry()
	e, err := core.Build(ds.Graph, core.Options{Dim: 16, Seed: 5, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableQueryCache(core.CacheConfig{MaxEntries: 256})
	return New(e), e, ds, reg
}

// TestGoldenQueryScript drives the full serving stack through a fixed
// scripted mix — misses, hits, normalization variants, an update, a
// timeout and a shed request — and asserts the exact rankings and the
// exact cache counter values the script must produce.
func TestGoldenQueryScript(t *testing.T) {
	s, e, ds, reg := goldenServer(t)
	g := ds.Graph
	query := ds.Corpus()[0][:40]

	get := func(path string) (int, *httptest.ResponseRecorder) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec
	}
	experts := func(q string, m, n int) ExpertsResponse {
		t.Helper()
		code, rec := get("/experts?q=" + url.QueryEscape(q) +
			"&m=" + strconv.Itoa(m) + "&n=" + strconv.Itoa(n))
		if code != 200 {
			t.Fatalf("experts %q: status %d: %s", q, code, rec.Body.String())
		}
		var resp ExpertsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	counter := func(name string) int {
		return int(reg.Counter(name, "").Value())
	}
	entries := func() int {
		return int(reg.Gauge("expertfind_qcache_entries", "").Value())
	}

	// 1. Cold query: a miss that fills the cache.
	first := experts(query, 40, 5)
	if first.Cached {
		t.Fatal("step 1: cold query reported cached")
	}
	if len(first.Experts) != 5 {
		t.Fatalf("step 1: %d experts, want 5", len(first.Experts))
	}

	// 2. Identical query: a hit with the exact same ranking.
	second := experts(query, 40, 5)
	if !second.Cached {
		t.Fatal("step 2: repeat query missed the cache")
	}
	if !reflect.DeepEqual(first.Experts, second.Experts) {
		t.Fatalf("step 2: hit ranking differs from miss:\n%+v\n%+v", first.Experts, second.Experts)
	}

	// 3. Case/whitespace variant: still a hit.
	third := experts("  "+query+"  ", 40, 5)
	if !third.Cached || !reflect.DeepEqual(first.Experts, third.Experts) {
		t.Fatalf("step 3: variant not served from cache (cached=%v)", third.Cached)
	}

	// 4. Different m: a different result identity, so a miss.
	if r := experts(query, 41, 5); r.Cached {
		t.Fatal("step 4: different m served from cache")
	}

	// 5+6. /papers is its own entry: miss then hit, same bytes.
	_, rec5 := get("/papers?q=" + url.QueryEscape(query) + "&m=10")
	_, rec6 := get("/papers?q=" + url.QueryEscape(query) + "&m=10")
	if rec5.Body.String() != rec6.Body.String() {
		t.Fatal("steps 5/6: papers hit differs from miss")
	}
	if n := entries(); n != 3 {
		t.Fatalf("steps 1-6: %d entries resident, want 3 (m=40, m=41, /papers)", n)
	}

	// 7. An update invalidates everything.
	if _, err := e.AddPaper(core.NewPaper{
		Text:    "golden update " + query,
		Authors: g.NodesOfType(hetgraph.Author)[:1],
	}); err != nil {
		t.Fatal(err)
	}
	if n := entries(); n != 0 {
		t.Fatalf("step 7: %d entries survived the update", n)
	}

	// 8. Post-update repeat of step 1: a miss again.
	if r := experts(query, 40, 5); r.Cached {
		t.Fatal("step 8: stale cache hit after update")
	}

	// 9. Expired deadline: 504, counted, and not a cache interaction.
	s.QueryTimeout = time.Nanosecond
	code, rec := get("/experts?q=" + url.QueryEscape(query) + "&m=40&n=5")
	if code != 504 {
		t.Fatalf("step 9: status %d, want 504: %s", code, rec.Body.String())
	}
	s.QueryTimeout = 0

	// 10. Saturated server: 503 with a Retry-After hint of one second.
	s.MaxInFlight = 2
	s.inflightQueries.Store(2)
	code, rec = get("/experts?q=" + url.QueryEscape(query) + "&m=40&n=5")
	if code != 503 {
		t.Fatalf("step 10: status %d, want 503", code)
	}
	if ra := rec.Result().Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("step 10: Retry-After = %q, want \"1\"", ra)
	}
	s.inflightQueries.Store(0)
	s.MaxInFlight = 0

	// The script's exact counter footprint: steps 2, 3 and 6 hit; steps
	// 1, 4, 5 and 8 miss; step 7 invalidates; steps 9 and 10 never reach
	// the cache.
	for _, want := range []struct {
		name  string
		value int
	}{
		{"expertfind_qcache_hits_total", 3},
		{"expertfind_qcache_misses_total", 4},
		{"expertfind_qcache_invalidations_total", 1},
		{"expertfind_updates_total", 1},
		{"expertfind_http_timeouts_total", 1},
		{"expertfind_http_shed_total", 1},
	} {
		if got := counter(want.name); got != want.value {
			t.Errorf("%s = %d, want %d", want.name, got, want.value)
		}
	}
}

// TestGoldenRankingsDeterministic rebuilds the engine from the same seed
// and requires byte-identical /experts output: the fixed-seed pipeline
// has no hidden nondeterminism for the cache to memoise.
func TestGoldenRankingsDeterministic(t *testing.T) {
	s1, _, ds, _ := goldenServer(t)
	s2, _, _, _ := goldenServer(t)
	for _, q := range []string{ds.Corpus()[0][:40], ds.Corpus()[7][:30]} {
		path := "/experts?q=" + url.QueryEscape(q) + "&m=40&n=5"
		rec1, rec2 := httptest.NewRecorder(), httptest.NewRecorder()
		s1.ServeHTTP(rec1, httptest.NewRequest("GET", path, nil))
		s2.ServeHTTP(rec2, httptest.NewRequest("GET", path, nil))
		if rec1.Code != 200 || rec2.Code != 200 {
			t.Fatalf("statuses %d/%d", rec1.Code, rec2.Code)
		}
		var a, b ExpertsResponse
		if err := json.Unmarshal(rec1.Body.Bytes(), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rec2.Body.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Experts, b.Experts) {
			t.Fatalf("rankings differ across identical builds for %q:\n%+v\n%+v",
				q, a.Experts, b.Experts)
		}
	}
}
