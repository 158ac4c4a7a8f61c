package cluster

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"regexp"
	"sync"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
)

// replyCase is one query's /shard/papers round trip at every stage: what
// each shard retrieved, the response it built, its frame, and the frame
// decoded as the router holds it.
type replyCase struct {
	res     [][]pgindex.Result
	sent    []*PapersResponse
	frames  [][]byte
	decoded []*PapersResponse
}

// replyCases retrieves each query on every shard engine and carries the
// answer through Papers, encodeFrame and decodeFrame.
func replyCases(tb testing.TB, engines []*ShardEngine, queries []string, m int) []replyCase {
	tb.Helper()
	cases := make([]replyCase, len(queries))
	for i, q := range queries {
		c := &cases[i]
		for _, se := range engines {
			res, err := se.Retrieve(context.Background(), q, m)
			if err != nil {
				tb.Fatal(err)
			}
			sent := se.Papers(res, true, false)
			frame := encodeFrame(sent)
			got := new(PapersResponse)
			if err := decodeFrame(frame, got); err != nil {
				tb.Fatal(err)
			}
			c.res, c.sent = append(c.res, res), append(c.sent, sent)
			c.frames, c.decoded = append(c.frames, frame), append(c.decoded, got)
		}
	}
	return cases
}

// splitEngine splits eng two ways with exact retrieval.
func splitEngine(tb testing.TB, eng *core.Engine) []*ShardEngine {
	tb.Helper()
	engines := make([]*ShardEngine, 2)
	for i := range engines {
		se, err := NewShardEngine(eng, ShardConfig{ID: i, Of: 2})
		if err != nil {
			tb.Fatal(err)
		}
		engines[i] = se
	}
	return engines
}

var (
	replyOnce sync.Once
	replyDS   *dataset.Dataset
	replyEng  *core.Engine
)

// BenchmarkShardReply times the stages of one routed /experts reply on the
// cluster benchmark's shape — AminerSim(3000), exact retrieval, two shards,
// m = 200, n = 20 — cycling over 16 queries: retrieve is one shard's
// ShardEngine.Retrieve (the query's encoding and the exact scan of its
// 1 500 rows), papers its ShardEngine.Papers, encode its encodeFrame,
// decode the router's
// decodeFrame of it, and rank the router's rankResponses over both shards'
// decoded frames.
func BenchmarkShardReply(b *testing.B) {
	const m, n = 200, 20
	replyOnce.Do(func() {
		replyDS = dataset.Generate(dataset.AminerSim(3000))
		e, err := core.Build(replyDS.Graph, core.Options{FastSampling: true,
			UsePGIndex: core.Bool(false), Metrics: obs.NewRegistry()})
		if err != nil {
			panic(err)
		}
		replyEng = e
	})
	var queries []string
	for _, q := range replyDS.Queries(16, rand.New(rand.NewSource(3))) {
		queries = append(queries, q.Text)
	}
	engines := splitEngine(b, replyEng)
	cases := replyCases(b, engines, queries, m)
	b.Run("retrieve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := engines[0].Retrieve(context.Background(), queries[i%len(queries)], m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("papers", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := &cases[i%len(cases)]
			engines[0].Papers(c.res[0], true, false).free()
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			freeFrameBuf(encodeFrame(cases[i%len(cases)].sent[0]))
		}
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := responses.Get().(*PapersResponse)
			if err := decodeFrame(cases[i%len(cases)].frames[0], r); err != nil {
				b.Fatal(err)
			}
			r.free()
		}
	})
	b.Run("rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := rankResponses(context.Background(), cases[i%len(cases)].decoded, m, n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRouterRepliesConcurrently: queries routed at once from several
// clients, /experts and /papers mixed, each get the single node's body —
// the shards and the router recycle frame buffers, responses and rank
// scratch between them, and none may reach another query's answer.
func TestRouterRepliesConcurrently(t *testing.T) {
	ds, eng := equivEngine(t)
	single := singleNode(t, eng)
	topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{}, nil, nil)
	var paths []string
	for _, q := range ds.Queries(8, rand.New(rand.NewSource(9))) {
		paths = append(paths, "/experts?m=200&n=20&"+url.Values{"q": {q.Text}}.Encode(), "/papers?m=30&"+url.Values{"q": {q.Text}}.Encode())
	}
	// response_ms is the one field a routed body may differ in.
	responseMs := regexp.MustCompile(`"response_ms":[^,}]*,?`)
	get := func(base, path string) (string, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return responseMs.ReplaceAllString(string(b), ""), err
	}
	want := map[string]string{}
	for _, p := range paths {
		w, err := get(single, p)
		if err != nil {
			t.Fatal(err)
		}
		want[p] = w
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 3*len(paths); i++ {
				p := paths[(i+c*5)%len(paths)]
				if got, err := get(topo.routerURL, p); err != nil || got != want[p] {
					t.Errorf("client %d %s: %v\n got %.200s\nwant %.200s", c, p, err, got, want[p])
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
