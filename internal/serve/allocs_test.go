//go:build !race

package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// Not under -race, where sync.Pool drops a quarter of what it is handed on
// purpose and an allocation count means nothing.

// discardWriter is a ResponseWriter that keeps nothing, so what
// TestServeAllocsPerQuery counts is the server's own work.
type discardWriter struct{ header http.Header }

func (w discardWriter) Header() http.Header         { return w.header }
func (w discardWriter) WriteHeader(int)             {}
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServeAllocsPerQuery pins what a served query allocates, engine and
// envelope together: an uncached /experts (m=40, n=5) through
// Server.ServeHTTP measured 51 allocations when this was written. The
// bound is that plus 10 %.
func TestServeAllocsPerQuery(t *testing.T) {
	s, ds := server(t)
	req := httptest.NewRequest("GET", "/experts?q="+url.QueryEscape(ds.Corpus()[3][:40])+"&n=5&m=40", nil)
	w := discardWriter{header: http.Header{}}
	allocs := testing.AllocsPerRun(50, func() { s.ServeHTTP(w, req) })
	t.Logf("a served /experts made %v allocations", allocs)
	if allocs > 56 {
		t.Fatalf("a served /experts made %v allocations, want <= 56 (51 measured + 10 %%)", allocs)
	}
}
