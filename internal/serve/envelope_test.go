package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// One writer: every JSON body of the server and the router is
// Envelope.WriteJSON's compact, length-declared encoding. These tests pin
// what it writes, that its pooled buffers stay private to a response, what
// a served query allocates, and that the bodies differ from the indented
// ones it replaced in insignificant whitespace only.

func TestWriteJSONCompact(t *testing.T) {
	env := Envelope{Metrics: NewEnvelopeMetrics(obs.NewRegistry())}
	v := ExpertsResponse{Query: "graph <embedding>", ResponseMs: 0.125,
		Experts: []ExpertResult{{Rank: 1, ID: 7, Name: "Ünal \"Q\"", Score: 1.0 / 3, Papers: 2}}}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	rec := httptest.NewRecorder()
	env.WriteJSON(rec, http.StatusOK, v)
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("status %d, body %q, want 200 and %q", rec.Code, rec.Body.Bytes(), want)
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
		t.Errorf("Content-Length %q, want %d", got, len(want))
	}

	// The status form: code and headers are committed before the body.
	ow := &orderWriter{header: http.Header{}}
	env.WriteJSON(ow, http.StatusServiceUnavailable, ReadyResponse{Status: "loading"})
	if got := strings.Join(ow.events, " "); got != `header:503:application/json:21 write:{"status":"loading"}` {
		t.Errorf("write order %q", got)
	}
}

// orderWriter records the order of WriteHeader and Write and what the
// header held when the status line went out.
type orderWriter struct {
	header http.Header
	events []string
}

func (w *orderWriter) Header() http.Header { return w.header }
func (w *orderWriter) WriteHeader(code int) {
	w.events = append(w.events, fmt.Sprintf("header:%d:%s:%s", code,
		w.header.Get("Content-Type"), w.header.Get("Content-Length")))
}
func (w *orderWriter) Write(p []byte) (int, error) {
	w.events = append(w.events, "write:"+strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestWriteJSONPoolIsolation runs under -race in CI: 64 concurrent
// /experts and /papers through one server, each with its own query; every
// body must decode and belong to its own request, so a pooled buffer never
// shows up in another response. An oversized body is served whole and its
// buffer is not kept.
func TestWriteJSONPoolIsolation(t *testing.T) {
	s, ds := server(t)
	corpus := ds.Corpus()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf("%s %d", corpus[i%len(corpus)][:30], i)
			if i%2 == 0 {
				var resp ExpertsResponse
				getJSON(t, s, "/experts?q="+url.QueryEscape(q)+"&n=5&m=40", &resp)
				if resp.Query != q || len(resp.Experts) != 5 {
					t.Errorf("request %d got the answer to %q with %d experts", i, resp.Query, len(resp.Experts))
				}
				return
			}
			m := 1 + i%7
			var papers []PaperResult
			getJSON(t, s, fmt.Sprintf("/papers?q=%s&m=%d", url.QueryEscape(q), m), &papers)
			if len(papers) != m {
				t.Errorf("request %d asked for %d papers, got %d", i, m, len(papers))
			}
		}(i)
	}
	wg.Wait()

	big := strings.Repeat("x", 2*maxPooledJSON)
	rec := httptest.NewRecorder()
	s.WriteJSON(rec, big)
	if rec.Body.Len() != len(big)+3 { // quotes and newline
		t.Fatalf("oversized body: %d bytes served, want %d", rec.Body.Len(), len(big)+3)
	}
	for i := 0; i < 100; i++ {
		b := jsonBufs.Get().(*bytes.Buffer)
		if b.Cap() > maxPooledJSON {
			t.Fatalf("the pool kept a %d-byte buffer, cap is %d", b.Cap(), maxPooledJSON)
		}
		if b.Len() != 0 {
			t.Fatalf("the pool handed out a buffer still holding %d bytes", b.Len())
		}
	}
}

// getJSON serves one GET and decodes its 200 body into v.
func getJSON(t *testing.T, h http.Handler, path string, v interface{}) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
	} else if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Errorf("%s: %v in %q", path, err, rec.Body.String())
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so what
// TestServeAllocsPerQuery counts is the server's own work.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServeAllocsPerQuery pins what a served query allocates, engine and
// envelope together: an uncached /experts (m=40, n=5) through
// Server.ServeHTTP measured 59 allocations when this was written — 110
// with the indenting writer, the sorted-copy metric lookups and a trace id
// formatted by every span. The bound is that plus 10 %. Not under -race,
// where sync.Pool drops a quarter of what it is handed on purpose.
func TestServeAllocsPerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool leaks by design under the race detector")
	}
	s, ds := server(t)
	req := httptest.NewRequest("GET", "/experts?q="+url.QueryEscape(ds.Corpus()[3][:40])+"&n=5&m=40", nil)
	w := discardWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(50, func() { s.ServeHTTP(w, req) })
	if allocs > 65 {
		t.Fatalf("a served /experts made %v allocations, want <= 65 (59 measured + 10 %%)", allocs)
	}
}

// indented is the body the writer this one replaced would have sent: the
// same encoding, indented by two spaces.
func indented(t *testing.T, compact []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Indent(&b, compact, "", "  "); err != nil {
		t.Fatalf("%v in %q", err, compact)
	}
	return b.Bytes()
}

// TestBodiesDifferOnlyInWhitespace decodes the old indented form and the
// new compact form of every route's body into the same values, and checks
// the new one is the old one minus insignificant whitespace.
func TestBodiesDifferOnlyInWhitespace(t *testing.T) {
	s, ds := updateServer(t)
	q := url.QueryEscape(ds.Corpus()[0][:40])
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	paper := ds.Graph.NodesOfType(hetgraph.Paper)[0]
	notReady, _ := updateServer(t)
	notReady.SetReady(false)

	cases := []struct {
		srv          *Server
		method, path string
		body         string
		code         int
		into         func() interface{}
	}{
		{s, "GET", "/experts?q=" + q + "&n=5&m=40&debug=1", "", 200, func() interface{} { return new(ExpertsResponse) }},
		{s, "GET", "/papers?q=" + q + "&m=7", "", 200, func() interface{} { return new([]PaperResult) }},
		{s, "GET", fmt.Sprintf("/similar?id=%d&m=3", paper), "", 200, func() interface{} { return new([]PaperResult) }},
		{s, "POST", "/add", fmt.Sprintf(`{"text":"one more paper","authors":[%d]}`, authors[0]), 200, func() interface{} { return new(AddResponse) }},
		{s, "GET", "/healthz", "", 200, func() interface{} { return new(HealthResponse) }},
		{s, "GET", "/readyz", "", 200, func() interface{} { return new(ReadyResponse) }},
		{notReady, "GET", "/readyz", "", 503, func() interface{} { return new(ReadyResponse) }},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		c.srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Fatalf("%s %s: status %d, want %d: %s", c.method, c.path, rec.Code, c.code, rec.Body.String())
		}
		compact := rec.Body.Bytes()
		old := indented(t, compact)
		if bytes.Equal(old, compact) {
			t.Errorf("%s: the body is still indented: %q", c.path, compact)
		}
		var back bytes.Buffer
		if err := json.Compact(&back, old); err != nil || back.String()+"\n" != string(compact) {
			t.Errorf("%s: compacting the indented body gives %.80q (err %v), the served body is %.80q",
				c.path, back.String(), err, compact)
		}
		a, b := c.into(), c.into()
		if err := json.Unmarshal(old, a); err != nil {
			t.Fatalf("%s: indented form: %v", c.path, err)
		}
		if err := json.Unmarshal(compact, b); err != nil {
			t.Fatalf("%s: compact form: %v", c.path, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the two forms decode to different values:\n%+v\n%+v", c.path, a, b)
		}
	}

	// The 503 the old code wrote by hand, byte for byte, decodes to what
	// the writer now sends.
	var hand, now ReadyResponse
	if err := json.Unmarshal([]byte("{\n  \"status\": \"loading\"\n}\n"), &hand); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	notReady.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &now); err != nil || now != hand {
		t.Errorf("503 body %q decodes to %+v (err %v), the hand-written one to %+v", rec.Body.Bytes(), now, err, hand)
	}
	if rec.Header().Get("Retry-After") == "" || rec.Header().Get("Content-Type") != "application/json" {
		t.Errorf("503 headers: %v", rec.Header())
	}
}

// TestNotReadyBodyIsJSON: a probe's status word reaches the 503 body
// through the JSON encoder, whatever it holds. The hand-written body
// formatted it with %q, Go's quoting, which JSON does not read (\x01, \a).
func TestNotReadyBodyIsJSON(t *testing.T) {
	s, _ := updateServer(t)
	status := "lag \"high\"\nñ 研 \x01\a"
	s.ReadyProbe = func() (bool, string) { return false, status }
	boot := NewGate()
	for name, h := range map[string]http.Handler{"server": s, "gate": boot} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		var resp ReadyResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: 503 body %q: %v", name, rec.Body.Bytes(), err)
		}
		if rec.Code != http.StatusServiceUnavailable || resp.Status == "" ||
			rec.Header().Get("Retry-After") == "" || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: %d %+v %v", name, rec.Code, resp, rec.Header())
		}
		if name == "server" && resp.Status != status {
			t.Errorf("status %q came back as %q", status, resp.Status)
		}
	}
}

// TestTailStreamFlushes: behind the envelope's statusWriter the WAL tail
// handler's per-record Flush must reach the connection. It never did while
// the handler asked the wrapper for http.Flusher.
func TestTailStreamFlushes(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 3)
	rec := httptest.NewRecorder()
	ld.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/replication/wal?from=1", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("tail: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if !rec.Flushed {
		t.Fatal("the tail stream was never flushed through the envelope")
	}
}

// TestSnapshotDownloadCountsBytes: io.Copy hands the snapshot file to
// statusWriter.ReadFrom, which must count what it forwards — the access
// line's bytes equal the body's length on that path too.
func TestSnapshotDownloadCountsBytes(t *testing.T) {
	var _ io.ReaderFrom = (*statusWriter)(nil)
	ld := startReplLeader(t, 0, 0)
	var log bytes.Buffer
	ld.srv.Log = obs.NewLogger(&log, obs.LevelInfo)
	rec := httptest.NewRecorder()
	ld.srv.ServeHTTP(rec, httptest.NewRequest("GET", "/replication/snapshot", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
		t.Fatalf("snapshot: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if want := fmt.Sprintf(" status=200 bytes=%d ", rec.Body.Len()); !strings.Contains(log.String(), want) {
		t.Errorf("access line %q lacks %q", log.String(), want)
	}
}
