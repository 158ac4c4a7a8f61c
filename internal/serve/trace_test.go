package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/obs"
)

// retainEverything keeps every offered trace so assertions don't depend
// on sampling arithmetic.
func retainEverything() obs.TracePolicy {
	return obs.TracePolicy{Capacity: 16, SlowestN: -1, SampleEvery: 1}
}

// TestTraceServeLifecycle drives one traced query through the full
// single-node middleware stack and checks every surfacing path: the
// ?debug=1 response field, /debug/traces retention, the slow-query log,
// and the histogram exemplar on /metrics.
func TestTraceServeLifecycle(t *testing.T) {
	s, reg, ds := obsServer(t)
	s.engine.EnableQueryCache(core.CacheConfig{MaxEntries: 64})
	s.Traces = obs.NewTraceStore(retainEverything(), reg)
	s.SlowQuery = time.Nanosecond // everything is slow: the log line must fire
	var logBuf bytes.Buffer
	s.Log = obs.NewLogger(&logBuf, obs.LevelWarn)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	q := ds.Corpus()[0][:30]
	path := "/experts?q=" + url.QueryEscape(q) + "&n=5&m=30&debug=1"

	rec := get(path)
	if rec.Code != 200 {
		t.Fatalf("/experts: %d %s", rec.Code, rec.Body.String())
	}
	var resp ExpertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Debug == nil {
		t.Fatal("debug=1 response has no debug block")
	}
	traceID := resp.Debug.TraceID
	if len(traceID) != 32 {
		t.Fatalf("trace id %q, want 32 hex chars", traceID)
	}
	stages := map[string]bool{}
	for _, st := range resp.Debug.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"encode", "retrieve", "rank"} {
		if !stages[want] {
			t.Errorf("debug stages missing %q: %+v", want, resp.Debug.Stages)
		}
	}

	// The trace was retained and is served back with its span tree.
	rec = get("/debug/traces/" + traceID)
	if rec.Code != 200 {
		t.Fatalf("/debug/traces/%s: %d %s", traceID, rec.Code, rec.Body.String())
	}
	var tr TraceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("%d records, want 1", len(tr.Records))
	}
	r0 := tr.Records[0]
	if r0.Route != "/experts" || r0.Query != q || r0.Status != 200 {
		t.Fatalf("record framing: %+v", obs.TraceSummary{
			Route: r0.Route, Query: r0.Query, Status: r0.Status})
	}
	if r0.Root.Name != "query" {
		t.Fatalf("root span %q, want query", r0.Root.Name)
	}
	for _, want := range []string{"encode", "retrieve", "rank"} {
		if r0.Root.Find(want) == nil {
			t.Errorf("span tree missing %q", want)
		}
	}

	// The index lists it.
	rec = get("/debug/traces")
	var idx TraceIndexResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Count < 1 || len(idx.Traces) != idx.Count {
		t.Fatalf("index count %d, traces %d", idx.Count, len(idx.Traces))
	}
	if idx.Traces[0].TraceID != traceID {
		t.Fatalf("newest index entry %s, want %s", idx.Traces[0].TraceID, traceID)
	}

	// Slow-query surfacing: log line with the trace id, plus the counter.
	logLine := logBuf.String()
	if !strings.Contains(logLine, "msg=slow_query") || !strings.Contains(logLine, traceID) {
		t.Errorf("slow-query log missing or without trace id: %q", logLine)
	}
	if v := reg.Counter("expertfind_slow_queries_total", "").Value(); v < 1 {
		t.Errorf("slow query counter = %v", v)
	}

	// A cache hit runs no spans, so its debug block carries no trace id
	// and no second trace is retained.
	rec = get(path)
	var cached ExpertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second identical query not served from cache")
	}
	if cached.Debug == nil || cached.Debug.TraceID != "" {
		t.Errorf("cache hit debug block: %+v", cached.Debug)
	}

	// The request-latency histogram exposes the trace id as an exemplar —
	// but only to scrapers that negotiate OpenMetrics. The default 0.0.4
	// format must stay exemplar-free: its parser errors on the # suffix,
	// which would fail the entire scrape.
	rec = get("/metrics")
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeText {
		t.Errorf("/metrics content type %q, want %q", ct, obs.ContentTypeText)
	}
	if strings.Contains(rec.Body.String(), "# {trace_id=") {
		t.Error("0.0.4 /metrics output carries exemplars; classic scrapers will reject the scrape")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentTypeOpenMetrics {
		t.Errorf("negotiated /metrics content type %q, want %q", ct, obs.ContentTypeOpenMetrics)
	}
	om := rec.Body.String()
	if !strings.Contains(om, `# {trace_id="`+traceID+`"}`) {
		t.Error("OpenMetrics /metrics has no exemplar carrying the trace id")
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics /metrics output missing the # EOF terminator")
	}
}

// TestTraceServeEndpointsDisabled pins the /debug/traces behaviour when
// no store is configured, and the not-found path when one is.
func TestTraceServeEndpointsDisabled(t *testing.T) {
	s, reg, _ := obsServer(t)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "disabled") {
		t.Fatalf("without store: %d %s", rec.Code, rec.Body.String())
	}

	s.Traces = obs.NewTraceStore(retainEverything(), reg)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/deadbeef", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "not found") {
		t.Fatalf("unknown id: %d %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("empty index: %d %s", rec.Code, rec.Body.String())
	}
	var idx TraceIndexResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Count != 0 {
		t.Fatalf("empty store index count %d", idx.Count)
	}
}

// TestTraceServeRouteLabel keeps /debug/traces/{id} out of the route
// label's unbounded "other" bucket.
func TestTraceServeRouteLabel(t *testing.T) {
	for path, want := range map[string]string{
		"/debug/traces":         "/debug/traces",
		"/debug/traces/":        "/debug/traces",
		"/debug/traces/abc123":  "/debug/traces",
		"/debug/traces/x/y":     "/debug/traces",
		"/debug/tracesnotquite": "other",
	} {
		if got := routeLabel(serverRoutes, path); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
