package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// updateServer builds a dedicated engine for the mutation tests so the
// shared read-only fixture's rankings stay untouched.
func updateServer(t *testing.T) (*Server, *dataset.Dataset) {
	t.Helper()
	ds := dataset.Generate(dataset.AminerSim(120))
	e, err := core.Build(ds.Graph, core.Options{Dim: 8, Seed: 7, UseKPCore: core.Bool(false)})
	if err != nil {
		t.Fatal(err)
	}
	s := New(e)
	s.SetReady(true)
	return s, ds
}

func postAdd(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/add", strings.NewReader(body)))
	return rec
}

func TestReadyzGate(t *testing.T) {
	s, _ := updateServer(t)
	s.SetReady(false)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("booting /readyz = %d, want 503", rec.Code)
	}
	var resp ReadyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "loading" {
		t.Fatalf("status %q, want loading", resp.Status)
	}
	// /healthz stays 200 throughout: the process is alive, just not ready.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("booting /healthz = %d, want 200", rec.Code)
	}
	// Updates are refused until recovery is declared complete.
	if rec := postAdd(s, `{"text":"x","authors":[1]}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /add = %d, want 503", rec.Code)
	}

	s.SetReady(true)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready /readyz = %d, want 200", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ready" {
		t.Fatalf("status %q, want ready", resp.Status)
	}
}

func TestAddEndpoint(t *testing.T) {
	s, ds := updateServer(t)
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	body := fmt.Sprintf(`{"text":"heterogeneous graph embedding for expert search","authors":[%d,%d]}`,
		authors[0], authors[1])
	rec := postAdd(s, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp AddResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if ds.Graph.Type(hetgraph.NodeID(resp.ID)) != hetgraph.Paper {
		t.Fatalf("acked id %d is not a paper node", resp.ID)
	}
	// No WAL attached here, so seq stays 0 — the ack still carries it.
	if resp.Seq != s.engine.LastUpdateSeq() {
		t.Fatalf("seq %d != engine seq %d", resp.Seq, s.engine.LastUpdateSeq())
	}
	// The new paper is immediately queryable.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/similar?id=%d&m=3", resp.ID), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/similar on added paper = %d: %s", rec.Code, rec.Body.String())
	}
}

func TestAddEndpointErrors(t *testing.T) {
	s, ds := updateServer(t)
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	papers := ds.Graph.NodesOfType(hetgraph.Paper)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/add", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /add = %d, want 405", rec.Code)
	}
	if rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("missing Allow header")
	}

	if rec := postAdd(s, `{"text": truncated`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d, want 400", rec.Code)
	}
	// No authors: invalid update, engine untouched.
	if rec := postAdd(s, `{"text":"orphan paper"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("no authors = %d, want 400", rec.Code)
	}
	// A paper node where an author id belongs: typed InvalidUpdateError.
	rec = postAdd(s, fmt.Sprintf(`{"text":"x","authors":[%d]}`, papers[0]))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong node type = %d, want 400", rec.Code)
	}
	before, _ := s.engine.Rows()

	// A failing WAL turns acks off: 503, nothing applied.
	s.engine.SetUpdateLog(failingLog{})
	rec = postAdd(s, fmt.Sprintf(`{"text":"x","authors":[%d]}`, authors[0]))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("failing WAL = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if after, _ := s.engine.Rows(); len(after) != len(before) {
		t.Fatalf("update applied despite log failure: %d -> %d rows", len(before), len(after))
	}
}

type failingLog struct{}

func (failingLog) Append([]byte) (uint64, error) { return 0, errors.New("disk gone") }

func TestGateBootWindow(t *testing.T) {
	g := NewGate()

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("boot /readyz = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("boot /healthz = %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/experts?q=x", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("boot /experts = %d, want 503", rec.Code)
	}

	s, _ := updateServer(t)
	g.Install(s)
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("installed /readyz = %d, want 200", rec.Code)
	}
}

// TestGracefulShutdown: cancelling the context drains the gate's
// listener, runs onDrain (which flips the installed server's readiness
// off), and returns nil on a clean drain.
func TestGracefulShutdown(t *testing.T) {
	s, _ := updateServer(t)
	g := NewGate()
	g.Install(s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- g.ListenAndServeContext(ctx, "127.0.0.1:0", 2*time.Second,
			func() { s.SetReady(false) }, s.Registry(), nil)
	}()
	// ListenAndServeContext picks its own port via :0 which we cannot see
	// from here; readiness flip + clean return are the observable part.
	time.Sleep(50 * time.Millisecond)
	s.SetReady(true)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("clean shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	if s.ready.Load() {
		t.Fatal("readiness not flipped off during drain")
	}
}
