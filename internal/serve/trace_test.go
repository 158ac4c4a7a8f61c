package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
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
// ?debug=1 response field, /debug/traces retention and the slow-query
// log, and checks /metrics stays the plain 0.0.4 text.
func TestTraceServeLifecycle(t *testing.T) {
	s, reg, ds := obsServer(t)
	s.engine.EnableQueryCache(core.CacheConfig{MaxEntries: 64})
	s.Traces = obs.NewTraceStore(retainEverything())
	s.SlowQuery = time.Nanosecond // everything is slow: the log line must fire
	var logBuf bytes.Buffer
	s.Log = slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelWarn}))

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	q := ds.Corpus()[0][:30]
	path := "/experts?" + url.Values{"q": {q}}.Encode() + "&n=5&m=30&debug=1"

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
	stages = map[string]bool{}
	for _, c := range r0.Root.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"encode", "retrieve", "rank"} {
		if !stages[want] {
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

	// /metrics is the 0.0.4 text for every scraper, one that asks for
	// OpenMetrics included: no exemplar suffix, no # EOF terminator. The
	// way from a slow query to its trace is the log line and the store.
	for _, accept := range []string{"", "application/openmetrics-text; version=1.0.0"} {
		req := httptest.NewRequest("GET", "/metrics", nil)
		req.Header.Set("Accept", accept)
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("Accept %q: /metrics content type %q, want the 0.0.4 text", accept, ct)
		}
		if body := rec.Body.String(); strings.Contains(body, "# {trace_id=") || strings.Contains(body, "# EOF") {
			t.Errorf("Accept %q: /metrics carries OpenMetrics syntax", accept)
		}
	}

	// The envelope counts each trace it offers the store by the rule that
	// kept it, or as dropped when none did; the cache hit offered nothing.
	kept := func(rule string) float64 {
		return reg.Counter("expertfind_traces_kept_total", "", obs.L("reason", rule)).Value()
	}
	dropped := reg.Counter("expertfind_traces_dropped_total", "")
	if kept(obs.KeepSampled) != 1 || kept(obs.KeepSlow) != 0 || dropped.Value() != 0 {
		t.Errorf("kept{sampled} %v, kept{slow} %v, dropped %v; want 1, 0, 0",
			kept(obs.KeepSampled), kept(obs.KeepSlow), dropped.Value())
	}
	s.Traces = obs.NewTraceStore(obs.TracePolicy{SlowestN: -1, SampleEvery: -1}) // keeps no ordinary trace
	get("/papers?" + url.Values{"q": {q}}.Encode() + "&m=3")
	if dropped.Value() != 1 {
		t.Errorf("dropped = %v after a trace no rule keeps, want 1", dropped.Value())
	}
}

// TestTraceServeEndpointsDisabled pins the /debug/traces behaviour when
// no store is configured, and the not-found path when one is.
func TestTraceServeEndpointsDisabled(t *testing.T) {
	s, _, _ := obsServer(t)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 || !strings.Contains(rec.Body.String(), "disabled") {
		t.Fatalf("without store: %d %s", rec.Code, rec.Body.String())
	}

	s.Traces = obs.NewTraceStore(retainEverything())
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
