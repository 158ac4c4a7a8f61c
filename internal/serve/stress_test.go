package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"expertfind/internal/hetgraph"
)

// TestStressReadsDuringAdd runs the graph-reading routes against a
// stream of POST /add. The handlers format their responses (labels,
// author lists, paper counts, node counts) from the graph that /add
// appends to, so under -race this fails unless every such read holds
// the engine's lock (core.Engine.ReadGraph).
func TestStressReadsDuringAdd(t *testing.T) {
	s, ds := updateServer(t)
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	paper := ds.Graph.NodesOfType(hetgraph.Paper)[0]
	q := url.Values{"q": {ds.Corpus()[0][:40]}}.Encode()
	reads := []string{
		"/experts?" + q + "&n=5&m=40",
		"/papers?" + q + "&m=10",
		fmt.Sprintf("/similar?id=%d&m=5", paper),
		"/healthz",
	}

	const adds = 60
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < adds; i++ {
			body := fmt.Sprintf(`{"text":"streamed paper %d on graph embedding","authors":[%d,%d]}`,
				i, authors[i%len(authors)], authors[(i+1)%len(authors)])
			if rec := postAdd(s, body); rec.Code != http.StatusOK {
				t.Errorf("add %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i >= len(reads) {
					return
				}
			default:
			}
			rec := httptest.NewRecorder()
			path := reads[i%len(reads)]
			s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", path, rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Wait()
}
