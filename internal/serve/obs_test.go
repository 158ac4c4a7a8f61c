package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// obsServer builds an engine recording into a private registry; its
// offline training metrics land there too.
func obsServer(t *testing.T) (*Server, *obs.Registry, *dataset.Dataset) {
	t.Helper()
	reg := obs.NewRegistry()
	ds := dataset.Generate(dataset.AminerSim(150))
	e, err := core.Build(ds.Graph, core.Options{Dim: 16, Seed: 11, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return New(e), reg, ds
}

// TestMetricsEndpointIntegration drives real traffic through the server
// and verifies the /metrics scrape covers every surface the acceptance
// criteria name: per-route request counts and latency histograms,
// in-flight requests, PG-Index search work, TA depth, training progress
// and offline build phase durations.
func TestMetricsEndpointIntegration(t *testing.T) {
	s, _, ds := obsServer(t)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	q := url.QueryEscape(ds.Corpus()[0][:30])
	if rec := get("/experts?q=" + q + "&n=5&m=30"); rec.Code != 200 {
		t.Fatalf("/experts: %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("/papers?q=" + q + "&m=5"); rec.Code != 200 {
		t.Fatalf("/papers: %d", rec.Code)
	}
	paper := ds.Graph.NodesOfType(hetgraph.Paper)[0]
	if rec := get(fmt.Sprintf("/similar?id=%d&m=3", paper)); rec.Code != 200 {
		t.Fatalf("/similar: %d %s", rec.Code, rec.Body.String())
	}
	get("/no-such-route")

	rec := get("/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()

	for _, want := range []string{
		// HTTP middleware.
		`expertfind_http_requests_total{code="200",route="/experts"} 1`,
		`expertfind_http_requests_total{code="200",route="/papers"} 1`,
		`expertfind_http_requests_total{code="200",route="/similar"} 1`,
		`expertfind_http_requests_total{code="404",route="other"} 1`,
		`expertfind_http_request_seconds_bucket{route="/experts",le="+Inf"} 1`,
		`expertfind_http_request_seconds_count{route="/experts"} 1`,
		"expertfind_http_in_flight",
		// Online pipeline work, recorded by the engine.
		"expertfind_pgindex_searches_total",
		"expertfind_pgindex_hops_total",
		"expertfind_ta_runs_total 1",
		"expertfind_ta_depth_total",
		"expertfind_ta_candidates_total",
		// Query spans and counters.
		`expertfind_stage_seconds_count{stage="query/encode"}`,
		`expertfind_stage_seconds_count{stage="query/retrieve"}`,
		`expertfind_stage_seconds_count{stage="query/rank"}`,
		"expertfind_query_seconds_count 3",
		"expertfind_queries_total 3",
		// Offline build phases, from the build spans.
		`expertfind_stage_seconds_count{stage="build"} 1`,
		`expertfind_stage_seconds_count{stage="build/vocab"} 1`,
		`expertfind_stage_seconds_count{stage="build/pretrain"} 1`,
		`expertfind_stage_seconds_count{stage="build/tokencache"} 1`,
		`expertfind_stage_seconds_count{stage="build/sampling"} 1`,
		`expertfind_stage_seconds_count{stage="build/training"} 1`,
		`expertfind_stage_seconds_count{stage="build/embedding"} 1`,
		`expertfind_stage_seconds_count{stage="build/indexing"} 1`,
		// The fine-tuning run, recorded once Build has it.
		"expertfind_train_epochs_total 4",
		"expertfind_builds_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The PG-Index did real work: hops strictly positive.
	hops := regexp.MustCompile(`expertfind_pgindex_hops_total (\d+)`).FindStringSubmatch(body)
	if hops == nil || hops[1] == "0" {
		t.Errorf("pgindex hops not recorded: %v", hops)
	}
}

// TestServedEnginesRecordApart: two engines served side by side each
// record their own searches and rankings, whichever was served last.
func TestServedEnginesRecordApart(t *testing.T) {
	a, regA, ds := obsServer(t)
	_, regB, _ := obsServer(t) // served after A
	rec := httptest.NewRecorder()
	a.ServeHTTP(rec, httptest.NewRequest("GET", "/experts?m=30&q="+url.QueryEscape(ds.Corpus()[0][:30]), nil))
	if rec.Code != 200 {
		t.Fatalf("/experts on A: %d %s", rec.Code, rec.Body.String())
	}
	for _, name := range []string{"expertfind_ta_runs_total", "expertfind_pgindex_searches_total"} {
		if got := regA.Counter(name, "").Value(); got != 1 {
			t.Errorf("A's %s = %v, want 1", name, got)
		}
		if got := regB.Counter(name, "").Value(); got != 0 {
			t.Errorf("B's %s = %v, want 0", name, got)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	s, _, ds := obsServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/experts?q="+url.QueryEscape(ds.Corpus()[1][:20]), nil))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars: %d", rec.Code)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap[`expertfind_http_requests_total{code="200",route="/experts"}`]; !ok {
		t.Error("request counter missing from /debug/vars")
	}
	var hs obs.HistogramSummary
	key := `expertfind_http_request_seconds{route="/experts"}`
	if err := json.Unmarshal(snap[key], &hs); err != nil || hs.Count != 1 {
		t.Errorf("histogram summary for %s = %+v (err %v)", key, hs, err)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	s, _, _ := obsServer(t)
	var buf strings.Builder
	s.Log = slog.New(slog.NewTextHandler(&buf, nil))

	// Incoming id is honoured: echoed in the response header and logged.
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "upstream-id-42")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "upstream-id-42" {
		t.Errorf("response id %q", got)
	}
	line := buf.String()
	if !strings.Contains(line, "req_id=upstream-id-42") ||
		!strings.Contains(line, "route=/healthz") ||
		!strings.Contains(line, "status=200") {
		t.Errorf("access line incomplete: %q", line)
	}

	// No incoming id: one is generated and still returned + logged.
	buf.Reset()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	id := rec.Header().Get("X-Request-ID")
	if len(id) != 16 {
		t.Errorf("generated id %q", id)
	}
	if !strings.Contains(buf.String(), "req_id="+id) {
		t.Errorf("generated id not in log: %q", buf.String())
	}
}

func TestPprofOptIn(t *testing.T) {
	s, _, _ := obsServer(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 404 {
		t.Fatalf("pprof reachable without opt-in: %d", rec.Code)
	}
	s.EnablePprof()
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("pprof index after EnablePprof: %d", rec.Code)
	}
}

func TestWriteJSONEncodeFailure(t *testing.T) {
	s := &Server{metrics: NewEnvelopeMetrics(obs.NewRegistry())}
	rec := httptest.NewRecorder()
	s.WriteJSON(rec, map[string]interface{}{"bad": make(chan int)})
	if rec.Code != 500 {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if got := s.Registry().Counter("expertfind_http_encode_failures_total", "").Value(); got != 1 {
		t.Errorf("encode failure counter = %v, want 1", got)
	}
	// Success path: headers only written after a full encode.
	rec = httptest.NewRecorder()
	s.WriteJSON(rec, map[string]int{"ok": 1})
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("success path: %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
}

func TestTruncateRuneSafe(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string
	}{
		{"short", 10, "short"},
		{"exactly-ten", 11, "exactly-ten"},
		{"0123456789ab", 10, "0123456789..."},
		{"héllo wörld", 5, "héllo..."},
		{"日本語のタイトルです", 4, "日本語の..."},
		{"grafos heterogéneos y búsqueda de expertos académicos", 20, "grafos heterogéneos " + "..."},
		{"", 5, ""},
	}
	for _, c := range cases {
		got := Truncate(c.in, c.n)
		if got != c.want {
			t.Errorf("Truncate(%q, %d) = %q, want %q", c.in, c.n, got, c.want)
		}
		if !utf8.ValidString(got) {
			t.Errorf("Truncate(%q, %d) produced invalid UTF-8: %q", c.in, c.n, got)
		}
	}
}

// TestPapersNonASCIITitles serves a corpus of long non-ASCII titles and
// checks the truncated response text is valid UTF-8 — the old byte-offset
// truncate sliced runes in half.
func TestPapersNonASCIITitles(t *testing.T) {
	g := hetgraph.New()
	title := strings.Repeat("効率的な専門家検索と異種グラフ埋め込み ", 8) // ~160 runes, 3 bytes each
	var papers []hetgraph.NodeID
	for i := 0; i < 12; i++ {
		papers = append(papers, g.AddNode(hetgraph.Paper, fmt.Sprintf("%s 論文%d", title, i)))
	}
	for i := 0; i < 4; i++ {
		a := g.AddNode(hetgraph.Author, fmt.Sprintf("著者-%d", i))
		for j := i; j < len(papers); j += 2 {
			g.MustAddEdge(a, papers[j], hetgraph.Write)
		}
	}
	e, err := core.Build(g, core.Options{Dim: 8, Seed: 3, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/papers?q="+url.QueryEscape("専門家検索")+"&m=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !utf8.Valid(rec.Body.Bytes()) {
		t.Fatal("response contains invalid UTF-8")
	}
	var out []PaperResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range out {
		if !utf8.ValidString(p.Text) {
			t.Errorf("mangled title %q", p.Text)
		}
		if strings.Contains(p.Text, "�") {
			t.Errorf("replacement rune in %q", p.Text)
		}
	}
}

// TestSimilarUsesEngineEF pins the /similar fix: the handler goes through
// the engine, so the configured EF search-pool option applies instead of
// the hard-coded 0 it used to pass straight to the index.
func TestSimilarUsesEngineEF(t *testing.T) {
	reg := obs.NewRegistry()
	ds := dataset.Generate(dataset.AminerSim(150))
	// An oversized EF forces the search to visit (nearly) the whole
	// corpus, which is observable in the per-search visit counts.
	e, err := core.Build(ds.Graph, core.Options{Dim: 16, Seed: 11, EF: 10000, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	id := ds.Graph.NodesOfType(hetgraph.Paper)[5]

	_, stWide, err := e.SimilarPapers(context.Background(), id, 3)
	if err != nil {
		t.Fatal(err)
	}
	ids, _, err := e.SimilarPapers(context.Background(), id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("got %d similar papers", len(ids))
	}

	// Same engine options but default EF: with m=3 the pool is only 2m,
	// so far fewer nodes are visited. If the handler ignored EF these
	// two would match.
	eDefault, err := core.Build(ds.Graph, core.Options{Dim: 16, Seed: 11, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	_, stNarrow, err := eDefault.SimilarPapers(context.Background(), id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stWide.Search.NodesVisited <= stNarrow.Search.NodesVisited {
		t.Errorf("EF not honoured: wide EF visited %d nodes, default visited %d",
			stWide.Search.NodesVisited, stNarrow.Search.NodesVisited)
	}
}
