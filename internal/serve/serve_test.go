package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

var (
	testSrvOnce sync.Once
	testSrv     *Server
	testDS      *dataset.Dataset
)

// server builds one small engine shared by all handler tests.
func server(t *testing.T) (*Server, *dataset.Dataset) {
	t.Helper()
	testSrvOnce.Do(func() {
		testDS = dataset.Generate(dataset.AminerSim(200))
		e, err := core.Build(testDS.Graph, core.Options{Dim: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		testSrv = New(e)
	})
	return testSrv, testDS
}

func TestExpertsEndpoint(t *testing.T) {
	s, ds := server(t)
	q := ds.Corpus()[0][:40]
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/experts?"+url.Values{"q": {q}}.Encode()+"&n=5&m=40", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp ExpertsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Experts) != 5 {
		t.Fatalf("got %d experts, want 5", len(resp.Experts))
	}
	for i, e := range resp.Experts {
		if e.Rank != i+1 || e.Name == "" || e.Papers == 0 {
			t.Errorf("bad expert entry %+v", e)
		}
		if i > 0 && resp.Experts[i-1].Score < e.Score {
			t.Error("experts not sorted by score")
		}
	}
	// candidates is the number of distinct authors of the papers the
	// query retrieved, whatever the engine's options.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/papers?"+url.Values{"q": {q}}.Encode()+"&m=40", nil))
	var papers []PaperResult
	if err := json.Unmarshal(rec.Body.Bytes(), &papers); err != nil || len(papers) != 40 {
		t.Fatalf("/papers: %d papers, err %v", len(papers), err)
	}
	authors := map[hetgraph.NodeID]bool{}
	for _, p := range papers {
		for _, a := range ds.Graph.AuthorsOf(hetgraph.NodeID(p.ID)) {
			authors[a] = true
		}
	}
	if resp.Candidates != len(authors) || resp.TADepth == 0 {
		t.Errorf("candidates = %d, ta_depth = %d; the retrieved papers have %d distinct authors",
			resp.Candidates, resp.TADepth, len(authors))
	}
}

func TestPapersEndpoint(t *testing.T) {
	s, ds := server(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/papers?"+url.Values{"q": {ds.Corpus()[3][:30]}}.Encode()+"&m=7", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out []PaperResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("got %d papers, want 7", len(out))
	}
	for _, p := range out {
		if p.Text == "" || len(p.Authors) == 0 {
			t.Errorf("bad paper entry %+v", p)
		}
	}
}

func TestHealthEndpoint(t *testing.T) {
	s, _ := server(t)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Papers != 200 || h.VocabSize == 0 || h.IndexEdges == 0 {
		t.Errorf("health incomplete: %+v", h)
	}
}

func TestParameterValidation(t *testing.T) {
	s, _ := server(t)
	cases := []struct {
		url  string
		code int
	}{
		{"/experts", 400},               // missing q
		{"/experts?q=x&n=-1", 400},      // negative n
		{"/experts?q=x&n=abc", 400},     // non-numeric
		{"/experts?q=x&n=9999999", 400}, // above MaxN
		{"/papers?q=", 400},             // empty q
		{"/experts?q=hello", 200},       // defaults apply
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d", c.url, rec.Code, c.code)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	s, ds := server(t)
	queries := ds.Corpus()[:8]
	var wg sync.WaitGroup
	errs := make(chan string, len(queries)*4)
	for round := 0; round < 4; round++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/experts?"+url.Values{"q": {q[:20]}}.Encode()+"&n=3&m=20", nil))
				if rec.Code != 200 {
					errs <- rec.Body.String()
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent query failed: %s", e)
	}
}

func TestSimilarEndpoint(t *testing.T) {
	s, ds := server(t)
	papers := ds.Graph.NodesOfType(hetgraph.Paper)
	id := papers[3]
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/similar?id=%d&m=5", id), nil))
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var out []PaperResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("got %d similar papers", len(out))
	}
	for _, p := range out {
		if hetgraph.NodeID(p.ID) == id {
			t.Error("query paper returned as its own neighbour")
		}
	}
	// Bad ids.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/similar?id=abc", nil))
	if rec.Code != 400 {
		t.Errorf("non-numeric id: status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/similar?id=999999", nil))
	if rec.Code != 404 {
		t.Errorf("unknown id: status %d", rec.Code)
	}
}
