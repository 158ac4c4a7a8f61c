package cluster

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/ctxtest"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// memNet is the shard replicas of a test, served in process: as the
// ShardClient's http.RoundTripper it hands each request to the handler of
// the replica its URL names, as that replica's schedule says.
type memNet map[string]*memReplica

// memReplica is one replica's handler and its schedule, the step for its
// n-th request (from 0, probes included), which a test may replace at
// any time. Without one, every request is served. A test that schedules
// holdServe makes release before it sets the schedule.
type memReplica struct {
	h        http.Handler
	schedule atomic.Pointer[func(n int64) step]
	release  chan struct{} // one receive per holdServe request answered
	requests atomic.Int64
	held     atomic.Int64
}

type step int

const (
	serveIt   step = iota // hand the request to the handler
	fail500               // answer 500 without it
	hold                  // hold it until its context ends, then fail it
	holdServe             // hold it until the test releases it, then serve it
)

func (rp *memReplica) set(schedule func(n int64) step) { rp.schedule.Store(&schedule) }

func always(s step) func(int64) step { return func(int64) step { return s } }

func (mn memNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	rp := mn[req.URL.Host]
	if rp == nil {
		return nil, fmt.Errorf("no replica at %s", req.URL.Host)
	}
	s, n := serveIt, rp.requests.Add(1)-1
	if schedule := rp.schedule.Load(); schedule != nil {
		s = (*schedule)(n)
	}
	rec := httptest.NewRecorder()
	switch s {
	case fail500:
		http.Error(rec, "injected fault", http.StatusInternalServerError)
	case hold, holdServe:
		rp.held.Add(1)
		var release chan struct{} // nil, so a plain hold is never released
		if s == holdServe {
			release = rp.release
		}
		select {
		case <-release:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
		fallthrough
	default:
		// The handler sees the request end, as a server sees its
		// connection close, and none of the caller's context values.
		ctx, cancel := context.WithCancel(context.Background())
		defer context.AfterFunc(req.Context(), cancel)()
		defer cancel()
		rp.h.ServeHTTP(rec, req.Clone(ctx))
	}
	return rec.Result(), nil
}

func scrapeMetrics(t *testing.T, routerURL string) string {
	t.Helper()
	resp, err := http.Get(routerURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return string(b)
}

func waitFor(t *testing.T, what string, deadline time.Duration, cond func() bool) {
	t.Helper()
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicaEjectionAndReadmission is the acceptance fault test: with
// one replica of a shard failing mid-query, scatter-gather must keep
// returning correct results within the deadline, the bad replica must be
// ejected after consecutive failures, a probe must re-admit it once it
// heals, and the eject/readmit counters must be visible on /metrics.
func TestReplicaEjectionAndReadmission(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(6, rand.New(rand.NewSource(21)))
	const m, n = 40, 10

	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 10 * time.Second},
		ClientConfig{
			Retries:       2,
			HedgeAfter:    -1, // isolate the retry/eject path
			EjectAfter:    2,
			ProbeInterval: 20 * time.Millisecond,
		},
		map[int]int{0: 2}, nil)
	bad := topo.replica(0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	topo.client.StartProbes(ctx)

	// Break the replica mid-operation, then query through the failure:
	// it answers 500 to everything, /readyz too, so probes see it down.
	bad.set(always(fail500))
	for _, q := range queries {
		want, _, err := eng.TopExperts(q.Text, m, n)
		if err != nil {
			t.Fatal(err)
		}
		got := queryExperts(t, topo.routerURL, q.Text, m, n)
		assertSameRanking(t, q.Text, got, want)
	}
	waitFor(t, "replica ejection", 2*time.Second, func() bool {
		return topo.client.AliveReplicas()[0] == 1
	})

	mtx := scrapeMetrics(t, topo.routerURL)
	for _, name := range []string{
		"expertfind_cluster_ejections_total",
		"expertfind_cluster_retries_total",
		"expertfind_cluster_replicas_alive",
	} {
		if !strings.Contains(mtx, name) {
			t.Errorf("/metrics is missing %s after an ejection", name)
		}
	}

	// Heal the replica; the background probe must re-admit it.
	bad.set(always(serveIt))
	waitFor(t, "probe re-admission", 2*time.Second, func() bool {
		return topo.client.AliveReplicas()[0] == 2
	})
	if !strings.Contains(scrapeMetrics(t, topo.routerURL), "expertfind_cluster_readmissions_total") {
		t.Error("/metrics is missing expertfind_cluster_readmissions_total after re-admission")
	}

	// And the topology serves correctly again on both replicas.
	q := queries[0]
	want, _, err := eng.TopExperts(q.Text, m, n)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, q.Text, queryExperts(t, topo.routerURL, q.Text, m, n), want)
}

// TestHedgedRequests checks the hedge setting both ways on shard 0's
// two replicas, one of which stalls. A positive HedgeAfter hedges a
// stalled sub-request to the peer after that delay and the hedge wins;
// the stalled one is held until its context ends. An unset one never
// hedges, however fast the stalling replica answered before: the router
// waits on each held sub-request until the test releases it and takes
// its late answer. The rankings are the same either way.
func TestHedgedRequests(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(6, rand.New(rand.NewSource(33)))
	const m, n = 40, 10

	for _, c := range []struct {
		name   string
		cfg    ClientConfig
		fast   int64 // sub-requests the stalling replica answers before it stalls
		stall  step
		rounds int
		hedges bool
	}{
		{"fixed 5ms", ClientConfig{HedgeAfter: 5 * time.Millisecond}, 0, hold, 6, true},
		{"unset", ClientConfig{}, 20, holdServe, 48, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			topo := startTopology(t, eng, 2, RouterConfig{QueryTimeout: 10 * time.Second}, c.cfg, map[int]int{0: 2}, nil)
			stalling := topo.replica(0, 0)
			stalling.release = make(chan struct{})
			stalling.set(func(n int64) step {
				if n < c.fast {
					return serveIt
				}
				return c.stall
			})
			// Release each holdServe request once it is held. With no
			// retries, a held request that failed would fail its query.
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for {
					select {
					case stalling.release <- struct{}{}:
					case <-stop:
						return
					}
				}
			}()
			for i := 0; i < c.rounds; i++ {
				q := queries[i%len(queries)]
				want, _, err := eng.TopExperts(q.Text, m, n)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRanking(t, q.Text, queryExperts(t, topo.routerURL, q.Text, m, n), want)
			}
			if stalling.held.Load() == 0 {
				t.Fatalf("the replica never stalled (%d requests)", stalling.requests.Load())
			}

			shard0 := obs.L("shard", "0")
			hedges := topo.reg.Counter("expertfind_cluster_hedges_total", "", shard0).Value()
			wins := topo.reg.Counter("expertfind_cluster_hedge_wins_total", "", shard0).Value()
			if c.hedges && (hedges == 0 || wins == 0) {
				t.Errorf("HedgeAfter %v: %v hedges, %v wins; want both > 0", c.cfg.HedgeAfter, hedges, wins)
			}
			if !c.hedges && hedges != 0 {
				t.Errorf("HedgeAfter %v: %v hedges, want none", c.cfg.HedgeAfter, hedges)
			}
		})
	}
}

// TestWholeShardDownIs502 pins the correctness-over-availability choice:
// when every replica of a shard is failing, the router must refuse with
// 502 rather than return a silently partial merge.
func TestWholeShardDownIs502(t *testing.T) {
	ds, eng := equivEngine(t)
	q := ds.Queries(1, rand.New(rand.NewSource(5)))[0]

	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 5 * time.Second},
		ClientConfig{Retries: 1, HedgeAfter: -1},
		nil, nil)

	topo.replica(1, 0).set(always(fail500))
	resp, err := http.Get(topo.routerURL + "/experts?q=" + strings.ReplaceAll(q.Text, " ", "+") + "&m=40&n=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("whole shard down: got status %d, want 502", resp.StatusCode)
	}
	if !strings.Contains(scrapeMetrics(t, topo.routerURL), "expertfind_cluster_shard_unavailable_total") {
		t.Error("/metrics is missing expertfind_cluster_shard_unavailable_total")
	}
	if !strings.Contains(scrapeMetrics(t, topo.routerURL), "expertfind_cluster_fanout_errors_total") {
		t.Error("/metrics is missing expertfind_cluster_fanout_errors_total")
	}

	// Heal: the same query must immediately succeed again.
	topo.replica(1, 0).set(always(serveIt))
	want, _, err := eng.TopExperts(q.Text, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, q.Text, queryExperts(t, topo.routerURL, q.Text, 40, 10), want)
}

// TestSlowShardIs504AndCounted: a shard that outlives QueryTimeout turns
// the query into a 504, and — as on a single node — every such 504
// increments expertfind_http_timeouts_total.
func TestSlowShardIs504AndCounted(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.Values{"q": {ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text}}.Encode()

	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 30 * time.Millisecond},
		ClientConfig{HedgeAfter: -1},
		nil, nil)

	topo.replica(1, 0).set(always(hold))
	for _, path := range []string{"/experts?" + q + "&m=40&n=10", "/papers?" + q + "&m=10"} {
		resp, err := http.Get(topo.routerURL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("%s with a slow shard: got status %d, want 504", path, resp.StatusCode)
		}
	}
	if !strings.Contains(scrapeMetrics(t, topo.routerURL), "expertfind_http_timeouts_total 2\n") {
		t.Error("/metrics does not count the two 504s in expertfind_http_timeouts_total")
	}
}

// TestExactShardHonoursContext: a shard without a PG-Index hands its
// context to the scan, so /shard/papers answers a request the router
// already dropped with 499 and one past its deadline with 504, and a
// context that dies after Retrieve's entry check still stops the scan.
func TestExactShardHonoursContext(t *testing.T) {
	_, eng := equivEngine(t)
	se, err := NewShardEngine(eng, ShardConfig{ID: 0, Of: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng)
	srv.SetReady(true)
	MountShard(srv, se)
	status := func(ctx context.Context) int {
		rec := httptest.NewRecorder()
		body := bytes.NewReader(encodeRequest(&PapersRequest{M: 10, Query: "graph"}))
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/papers", body).WithContext(ctx))
		return rec.Code
	}
	if got := status(context.Background()); got != http.StatusOK {
		t.Fatalf("live request: status %d", got)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if got := status(cancelled); got != 499 {
		t.Fatalf("pre-cancelled request: status %d, want 499", got)
	}
	expired, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	<-expired.Done() // the runtime timer fires some time after the deadline
	if got := status(expired); got != http.StatusGatewayTimeout {
		t.Fatalf("1us-deadline request: status %d, want 504", got)
	}
	// Poll 1 is Retrieve's entry check; poll 2 is the scan's first block.
	res, err := se.Retrieve(ctxtest.New(2), "graph", 10)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled mid-retrieve: %d results, err %v; want context.Canceled", len(res), err)
	}
}

// interceptShard passes a shard server's /shard/* traffic through see,
// which is shown every exchange that ended 200 — path and response body —
// and returns the response body to send.
func interceptShard(inner http.Handler, see func(path string, resp []byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/shard/") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = see(r.URL.Path, body)
		}
		w.Header().Set("Content-Type", rec.Header().Get("Content-Type"))
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// routerStatus runs one routed query and returns status and body.
func routerStatus(t *testing.T, topo *topology, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(topo.routerURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestWrongShardIDIs502NamingReplica: a replica started with the wrong
// -shard-id answers with another shard's id in its frames. The router
// used to take a paper's owner from that field and index its per-shard
// table with it — a panic for an id past the shard count, papers sent to
// a shard that does not own them otherwise. Now the owner is the fan-out
// index and the lying replica is a failed replica: 502, named.
func TestWrongShardIDIs502NamingReplica(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.Values{"q": {ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text}}.Encode()

	for _, claimed := range []int{7, 0, -1} { // past the shard count, a real other shard, negative
		topo := startTopology(t, eng, 2, RouterConfig{QueryTimeout: 5 * time.Second},
			ClientConfig{HedgeAfter: -1}, nil,
			func(shard, rep int, inner http.Handler) http.Handler {
				if shard != 1 {
					return inner
				}
				return interceptShard(inner, func(_ string, body []byte) []byte {
					le.PutUint32(body[frameHeaderLen:], uint32(int32(claimed)))
					return body
				})
			})
		liar := topo.client.Replicas()[1][0]
		for _, path := range []string{"/experts?" + q + "&m=40&n=10", "/papers?" + q + "&m=10"} {
			code, body := routerStatus(t, topo, path)
			if code != http.StatusBadGateway {
				t.Fatalf("claimed shard %d, %s: status %d, want 502: %s", claimed, path, code, body)
			}
			if !strings.Contains(body, liar) {
				t.Fatalf("claimed shard %d, %s: 502 does not name replica %s: %s", claimed, path, liar, body)
			}
		}
	}
}

// TestOldShardJSONIs502: a shard that still answers the JSON protocol, or
// the frame of the two-round protocol (version 1), or anything else that is
// not this version's frame, is a typed decode error that reaches the client
// as 502, never a panic or a silently empty merge.
func TestOldShardJSONIs502(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.Values{"q": {ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text}}.Encode()

	var answer atomic.Pointer[[]byte]
	topo := startTopology(t, eng, 2, RouterConfig{QueryTimeout: 5 * time.Second},
		ClientConfig{HedgeAfter: -1}, nil,
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard != 0 {
				return inner
			}
			return interceptShard(inner, func(path string, body []byte) []byte {
				if path != "/shard/papers" {
					t.Errorf("shard asked for %s", path)
				}
				return *answer.Load()
			})
		})
	// Version 1 laid a papers response out as shard · n · papers · trace.
	v1 := []byte{tagPapers, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	for name, body := range map[string][]byte{
		"JSON":          []byte(`{"shard":0,"papers":[]}`),
		"version 1":     v1,
		"experts frame": {'E', 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		answer.Store(&body)
		for _, path := range []string{"/experts?" + q + "&m=40&n=10", "/papers?" + q + "&m=10"} {
			code, got := routerStatus(t, topo, path)
			if code != http.StatusBadGateway || !strings.Contains(got, "bad papers payload") ||
				!strings.Contains(got, "bad shard frame") || !strings.Contains(got, "shard 0") {
				t.Fatalf("%s-speaking shard, %s: status %d, want 502 naming shard 0 and the frame error: %s", name, path, code, got)
			}
		}
	}
}

// TestRouterRefusesUnmergeableAnswers: answers that decode but would
// corrupt the expert sum are 502s naming the shards, not rankings — a paper
// two shards both return (it would be summed twice), a list out of
// retrieval order, and an author no table holds. Ids that are merely
// hostile — the largest int32, a negative one — are consistent answers and
// rank as given.
func TestRouterRefusesUnmergeableAnswers(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.Values{"q": {ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text}}.Encode()
	paths := []string{"/experts?" + q + "&m=40&n=10", "/papers?" + q + "&m=10"}
	refused := func(t *testing.T, topo *topology, want ...string) {
		t.Helper()
		for _, path := range paths {
			code, body := routerStatus(t, topo, path)
			if code != http.StatusBadGateway {
				t.Fatalf("%s: status %d, want 502: %s", path, code, body)
			}
			for _, w := range want {
				if !strings.Contains(body, w) {
					t.Fatalf("%s: the 502 does not say %q: %s", path, w, body)
				}
			}
		}
	}
	// rewrite re-frames the answers of the given shards after edit has been
	// at them.
	rewrite := func(edit func(*PapersResponse), shards ...int) func(shard, rep int, inner http.Handler) http.Handler {
		return func(shard, rep int, inner http.Handler) http.Handler {
			if !slices.Contains(shards, shard) {
				return inner
			}
			return interceptShard(inner, func(_ string, body []byte) []byte {
				resp, err := decodePapersResponse(body)
				if err != nil {
					t.Error(err)
				}
				edit(resp)
				return encodeFrame(resp)
			})
		}
	}

	t.Run("duplicate paper", func(t *testing.T) {
		// Both servers hold shard 0's slice (two shards started with
		// overlapping partitions); the second answers as shard 1.
		topo := startTopologyCfg(t, eng, 2, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
			rewrite(func(r *PapersResponse) { r.Shard = 1 }, 1),
			func(id, of int) ShardConfig { return ShardConfig{ID: 0, Of: of} })
		refused(t, topo, "also came from shard 0", "shard 1")
	})
	t.Run("list out of order", func(t *testing.T) {
		topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
			rewrite(func(r *PapersResponse) { r.Papers[0], r.Papers[1] = r.Papers[1], r.Papers[0] }, 1))
		refused(t, topo, "shard 1", "not in (distance, id) order")
	})
	t.Run("author in no table", func(t *testing.T) {
		topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
			rewrite(func(r *PapersResponse) { r.Authors = nil }, 0, 1))
		refused(t, topo, "is in no author table", "sent papers listing it")
	})
	t.Run("hostile author ids", func(t *testing.T) {
		// The shards rename the query's two best experts to the largest
		// int32 and to a negative id, in their lists and their tables
		// alike. That is a consistent answer: the router ranks the ids as
		// given, and no memory it allocates may scale with an id.
		text := ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text
		papers, _, err := eng.RetrievePapers(text, 40)
		if err != nil {
			t.Fatal(err)
		}
		all, _ := ta.TopExperts(eng.Graph(), papers, math.MaxInt32)
		rename := map[hetgraph.NodeID]hetgraph.NodeID{all[0].Expert: math.MaxInt32, all[1].Expert: -7}
		want := slices.Clone(all)
		for i, r := range want {
			if to, ok := rename[r.Expert]; ok {
				want[i].Expert = to
			}
		}
		slices.SortFunc(want, func(a, b ta.Ranking) int {
			if a.Before(b) {
				return -1
			}
			return 1
		})
		topo := startTopology(t, eng, 2, RouterConfig{}, ClientConfig{HedgeAfter: -1}, nil,
			rewrite(func(r *PapersResponse) {
				for _, p := range r.Papers {
					for j, a := range p.Authors {
						if to, ok := rename[a]; ok {
							p.Authors[j] = to
						}
					}
				}
				for i, a := range r.Authors {
					if to, ok := rename[a.ID]; ok {
						r.Authors[i].ID = to
					}
				}
				slices.SortFunc(r.Authors, func(a, b WireAuthor) int { return cmp.Compare(a.ID, b.ID) })
			}, 0, 1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := queryExperts(t, topo.routerURL, text, 40, 10)
		if code, body := routerStatus(t, topo, "/papers?"+q+"&m=10"); code != http.StatusOK {
			t.Fatalf("/papers: status %d: %s", code, body)
		}
		runtime.ReadMemStats(&after)
		assertSameRanking(t, text, got, want[:10])
		for _, e := range got.Experts {
			for from, to := range rename {
				if e.ID == int32(to) && e.Name != eng.Graph().Label(from) {
					t.Fatalf("expert %d is named %q, want %q", e.ID, e.Name, eng.Graph().Label(from))
				}
			}
		}
		// A table indexed by id would be gigabytes; both queries, their
		// shards and the HTTP around them allocate about half a megabyte.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("two queries over hostile ids allocated %d bytes", grew)
		}
	})
}

// TestShardPapersRequest: the one shard route takes a POST and nothing
// else, answers 400 to a body that is not one request — a refusal of the
// decoder, an empty query, an m outside 1 to serve.MaxM, a body over the
// cap — frames whatever detail was asked for, and the retired experts
// route is not there at all.
func TestShardPapersRequest(t *testing.T) {
	_, eng := equivEngine(t)
	se, err := NewShardEngine(eng, ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng)
	srv.SetReady(true)
	MountShard(srv, se)
	do := func(method, target string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return rec
	}
	good := encodeRequest(&PapersRequest{M: 5, Query: "graph"})
	if rec := do(http.MethodGet, "/shard/papers", good); rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET /shard/papers: status %d, Allow %q; want 405, POST", rec.Code, rec.Header().Get("Allow"))
	}
	edit := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	for name, body := range map[string][]byte{
		"empty body":     nil,
		"wrong tag":      edit(func(b []byte) []byte { b[0] = tagPapers; return b }),
		"version 2":      edit(func(b []byte) []byte { b[1] = 2; return b }),
		"trailing bytes": append(bytes.Clone(good), 0),
		"empty query":    encodeRequest(&PapersRequest{M: 5}),
		"m 0":            encodeRequest(&PapersRequest{Query: "graph"}),
		"m over MaxM":    encodeRequest(&PapersRequest{M: serve.MaxM + 1, Query: "graph"}),
		"over 1 MiB":     encodeRequest(&PapersRequest{M: 5, Query: strings.Repeat("graph ", maxRequestBody/6)}),
	} {
		if rec := do(http.MethodPost, "/shard/papers", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, rec.Code, rec.Body)
		}
	}
	if got := do(http.MethodPost, "/shard/papers", good).Code; got != http.StatusOK {
		t.Errorf("a good request: status %d", got)
	}
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		if got := do(method, "/shard/experts", good).Code; got != http.StatusNotFound {
			t.Errorf("%s /shard/experts: status %d, want 404", method, got)
		}
	}
	for _, c := range []struct {
		authors, text bool
		want          [3]bool // lists, table, text
	}{
		{false, false, [3]bool{false, false, false}},
		{true, false, [3]bool{true, true, false}},
		{false, true, [3]bool{true, true, true}},
		{true, true, [3]bool{true, true, true}},
	} {
		body := encodeRequest(&PapersRequest{M: 5, Authors: c.authors, Text: c.text, Query: "graph"})
		resp, err := decodePapersResponse(do(http.MethodPost, "/shard/papers", body).Body.Bytes())
		if err != nil || len(resp.Papers) != 5 {
			t.Fatalf("authors %v, text %v: %d papers, err %v", c.authors, c.text, len(resp.Papers), err)
		}
		got := [3]bool{len(resp.Papers[0].Authors) > 0, len(resp.Authors) > 0, resp.Papers[0].Text != ""}
		if got != c.want {
			t.Errorf("authors %v, text %v: lists, table, text = %v, want %v", c.authors, c.text, got, c.want)
		}
	}
}

// TestShardRequestReplaysOnStaleConnection: a shard that closes a
// kept-alive connection — it restarted, or drained — costs the router no
// failed sub-request, since the transport sends the request again on a
// new connection. The listener here answers one request per connection
// and drops the next unanswered; with no retries and ejection at the first
// failure, every request must still succeed and the replica stay alive.
func TestShardRequestReplaysOnStaleConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	frame := encodeFrame(&PapersResponse{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for answered := false; ; answered = true {
					req, err := http.ReadRequest(br)
					if err != nil || answered {
						return
					}
					io.Copy(io.Discard, req.Body)
					fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(frame), frame)
				}
			}()
		}
	}()
	client, err := NewShardClient([][]string{{ln.Addr().String()}},
		ClientConfig{Retries: 0, EjectAfter: 1}, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := client.Papers(context.Background(), 0, PapersRequest{M: 1, Query: "x"}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if alive := client.AliveReplicas()[0]; alive != 1 {
		t.Fatalf("%d replicas alive, want 1", alive)
	}
}

// TestRouterNotReadyBody: the router's 503 goes through the envelope's one
// JSON writer like every other body — compact, typed, length declared.
func TestRouterNotReadyBody(t *testing.T) {
	client, err := NewShardClient([][]string{{"127.0.0.1:1"}}, ClientConfig{HedgeAfter: -1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(client, RouterConfig{}, nil, nil)
	rt.SetReady(false)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	want := `{"status":"draining"}` + "\n"
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != want ||
		rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Errorf("router /readyz while draining: %d %q %v", rec.Code, rec.Body.String(), rec.Header())
	}
}

// TestShardBodyIsBounded: whatever answers at a shard address, the router
// reads at most its cap of it. A 1 GiB Content-Length, a body that ends
// before its Content-Length and a chunked body past the cap each fail the
// replica with a *BodyError, and none costs the router more than the cap;
// a chunked body within the cap is read whole, for at most twice the cap.
func TestShardBodyIsBounded(t *testing.T) {
	const limit = 1 << 20
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = byte(i * 7)
	}
	chunked := func(total int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			for sent := 0; sent < total; sent += len(chunk) {
				if _, err := w.Write(chunk[:min(len(chunk), total-sent)]); err != nil {
					return
				}
				w.(http.Flusher).Flush()
			}
		}
	}
	for _, c := range []struct {
		name  string
		limit int64
		h     http.HandlerFunc
		ok    bool
	}{
		{"1 GiB Content-Length", maxShardBody, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(1<<30))
			w.Write(chunk)
		}, false},
		{"truncated", limit, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(limit/2))
			w.Write(chunk)
		}, false},
		{"chunked past the cap", limit, chunked(8 * limit), false},
		{"chunked within the cap", limit, chunked(limit - 5), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(c.h)
			defer ts.Close()
			client, err := NewShardClient([][]string{{strings.TrimPrefix(ts.URL, "http://")}},
				ClientConfig{EjectAfter: 1}, obs.NewRegistry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			client.maxBody = c.limit
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b, err := client.Papers(ctx, 0, PapersRequest{M: 1, Query: "x"})
			runtime.ReadMemStats(&after)
			// A body read whole costs its chunks and the joined copy.
			bound := uint64(min(c.limit, limit))
			if c.ok {
				bound *= 2
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound+256<<10 {
				t.Errorf("the sub-request allocated %d bytes, cap %d", alloc, c.limit)
			}
			if c.ok {
				if err != nil || len(b) != limit-5 || b[len(chunk)+1] != chunk[1] {
					t.Fatalf("chunked body within the cap: %d bytes, %v", len(b), err)
				}
				return
			}
			var be *BodyError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want a *BodyError", err)
			}
			if alive := client.AliveReplicas()[0]; alive != 0 {
				t.Fatalf("%v did not fail the replica: %d alive", err, alive)
			}
		})
	}
}
