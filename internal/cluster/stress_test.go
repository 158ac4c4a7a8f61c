package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/serve"
)

// TestStressShardPapersDuringAdd has a shard answer /shard/papers while
// POST /add grows the paper lists of the very authors its replies name,
// and topics' paper lists beside them. Under -race it fails unless a reply
// reads the graph under the engine's lock. Every reply is checked against
// the engine: the retrieved papers, each one's author list, and each
// author's name and paper count, which must lie between the counts read
// just before and just after the request.
func TestStressShardPapersDuringAdd(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(150))
	eng, err := core.Build(ds.Graph, core.Options{Dim: 8, Seed: 7,
		UseKPCore: core.Bool(false), UsePGIndex: core.Bool(false), Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardEngine(eng, ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng)
	srv.SetReady(true)
	MountShard(srv, se)

	const m, adds = 20, 60
	q := ds.Corpus()[0][:40]
	// The shard's index is carved out once, so the added papers never
	// reach its replies: the papers and their author lists stay put.
	want, err := se.Retrieve(context.Background(), q, m)
	if err != nil {
		t.Fatal(err)
	}
	var authors []hetgraph.NodeID
	lists := map[hetgraph.NodeID][]hetgraph.NodeID{}
	eng.ReadGraph(func(g *hetgraph.Graph) {
		for _, r := range want {
			lists[r.ID] = slices.Clone(g.AuthorsOf(r.ID))
			authors = append(authors, lists[r.ID]...)
		}
	})
	topics := ds.Graph.NodesOfType(hetgraph.Topic)
	counts := func() map[hetgraph.NodeID]int {
		c := map[hetgraph.NodeID]int{}
		eng.ReadGraph(func(g *hetgraph.Graph) {
			for _, a := range authors {
				c[a] = len(g.PapersOf(a))
			}
		})
		return c
	}
	body, start := encodeRequest(&PapersRequest{M: m, Authors: true, Query: q}), counts()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < adds; i++ {
			add := fmt.Sprintf(`{"text":"streamed paper %d on graph embedding","authors":[%d,%d],"topics":[%d]}`,
				i, authors[i%len(authors)], authors[(i+1)%len(authors)], topics[i%len(topics)])
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", strings.NewReader(add)))
			if rec.Code != http.StatusOK {
				t.Errorf("add %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				if i > 0 {
					return
				}
			default:
			}
			before := counts()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/papers", bytes.NewReader(body)))
			after := counts()
			if rec.Code != http.StatusOK {
				t.Errorf("reply %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
			var got PapersResponse
			if err := decodeFrame(rec.Body.Bytes(), &got); err != nil {
				t.Errorf("reply %d: %v", i, err)
				return
			}
			if err := checkReply(eng, &got, want, lists, before, after); err != nil {
				t.Errorf("reply %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if end := counts(); end[authors[0]] <= start[authors[0]] {
		t.Fatalf("the adds left author %d's paper list at %d papers", authors[0], end[authors[0]])
	}
}

// checkReply holds one decoded reply to the engine, as
// TestStressShardPapersDuringAdd describes.
func checkReply(eng *core.Engine, got *PapersResponse, want []pgindex.Result,
	lists map[hetgraph.NodeID][]hetgraph.NodeID, before, after map[hetgraph.NodeID]int) error {
	if len(got.Papers) != len(want) {
		return fmt.Errorf("%d papers, want %d", len(got.Papers), len(want))
	}
	named := map[hetgraph.NodeID]bool{}
	for i, p := range got.Papers {
		id := hetgraph.NodeID(p.ID)
		if id != want[i].ID || p.Dist != want[i].Dist {
			return fmt.Errorf("paper %d is %d at %v, want %d at %v", i, id, p.Dist, want[i].ID, want[i].Dist)
		}
		if !slices.Equal(p.Authors, lists[id]) {
			return fmt.Errorf("paper %d's authors %v, want %v", id, p.Authors, lists[id])
		}
		for _, a := range p.Authors {
			named[a] = true
		}
	}
	if len(got.Authors) != len(named) {
		return fmt.Errorf("%d authors in the table, want %d", len(got.Authors), len(named))
	}
	var err error
	eng.ReadGraph(func(g *hetgraph.Graph) {
		for _, a := range got.Authors {
			switch {
			case !named[a.ID]:
				err = fmt.Errorf("author %d is in the table and in no list", a.ID)
			case a.Name != g.Label(a.ID):
				err = fmt.Errorf("author %d is named %q, want %q", a.ID, a.Name, g.Label(a.ID))
			case a.Papers < before[a.ID] || a.Papers > after[a.ID]:
				err = fmt.Errorf("author %d wrote %d papers, want %d to %d", a.ID, a.Papers, before[a.ID], after[a.ID])
			}
		}
	})
	return err
}
