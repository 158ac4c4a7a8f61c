package cluster

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/ctxtest"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// faultGate wraps a shard handler with switchable failure modes: while
// broken it answers 500 to everything (including /readyz, so probes see
// it down too); while slowed it delays every response past the first
// fast ones.
type faultGate struct {
	inner  http.Handler
	broken atomic.Bool
	delay  atomic.Int64 // nanoseconds
	fast   atomic.Int64 // requests still answered without the delay
}

func (f *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := f.delay.Load(); d > 0 && f.fast.Add(-1) < 0 {
		time.Sleep(time.Duration(d))
	}
	if f.broken.Load() {
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	}
	f.inner.ServeHTTP(w, r)
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

	var gate *faultGate
	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 10 * time.Second},
		ClientConfig{
			Retries:       2,
			HedgeAfter:    -1, // isolate the retry/eject path
			EjectAfter:    2,
			ProbeInterval: 20 * time.Millisecond,
		},
		map[int]int{0: 2},
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard == 0 && rep == 1 {
				gate = &faultGate{inner: inner}
				return gate
			}
			return inner
		})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	topo.client.StartProbes(ctx)

	// Break the replica mid-operation, then query through the failure.
	gate.broken.Store(true)
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
	gate.broken.Store(false)
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
// stalled sub-request to the peer after that delay and the hedge wins.
// An unset one never hedges, however fast the stalling replica answered
// before, and the rankings are the same either way.
func TestHedgedRequests(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(6, rand.New(rand.NewSource(33)))
	const m, n = 40, 10

	for _, c := range []struct {
		name   string
		cfg    ClientConfig
		fast   int64 // sub-requests the stalling replica answers before it stalls
		stall  time.Duration
		rounds int
		hedges bool
	}{
		{"fixed 5ms", ClientConfig{HedgeAfter: 5 * time.Millisecond},
			0, 200 * time.Millisecond, 6, true},
		{"unset", ClientConfig{}, 20, 100 * time.Millisecond, 48, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var gate *faultGate
			topo := startTopology(t, eng, 2, RouterConfig{QueryTimeout: 10 * time.Second}, c.cfg,
				map[int]int{0: 2},
				func(shard, rep int, inner http.Handler) http.Handler {
					if shard == 0 && rep == 0 {
						gate = &faultGate{inner: inner}
						return gate
					}
					return inner
				})
			gate.fast.Store(c.fast)
			gate.delay.Store(int64(c.stall))
			for i := 0; i < c.rounds; i++ {
				q := queries[i%len(queries)]
				want, _, err := eng.TopExperts(q.Text, m, n)
				if err != nil {
					t.Fatal(err)
				}
				assertSameRanking(t, q.Text, queryExperts(t, topo.routerURL, q.Text, m, n), want)
			}
			if gate.fast.Load() >= 0 {
				t.Fatalf("the replica never stalled (%d fast answers left)", gate.fast.Load())
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

	var gate *faultGate
	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 5 * time.Second},
		ClientConfig{Retries: 1, HedgeAfter: -1},
		nil,
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard == 1 {
				gate = &faultGate{inner: inner}
				return gate
			}
			return inner
		})

	gate.broken.Store(true)
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
	gate.broken.Store(false)
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
	q := url.QueryEscape(ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text)

	var gate *faultGate
	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 30 * time.Millisecond},
		ClientConfig{HedgeAfter: -1},
		nil,
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard == 1 {
				gate = &faultGate{inner: inner}
				return gate
			}
			return inner
		})

	gate.delay.Store(int64(300 * time.Millisecond))
	for _, path := range []string{"/experts?q=" + q + "&m=40&n=10", "/papers?q=" + q + "&m=10"} {
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
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard/papers?q=graph&m=10", nil).WithContext(ctx))
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
	q := url.QueryEscape(ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text)

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
		for _, path := range []string{"/experts?q=" + q + "&m=40&n=10", "/papers?q=" + q + "&m=10"} {
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
	q := url.QueryEscape(ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text)

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
		for _, path := range []string{"/experts?q=" + q + "&m=40&n=10", "/papers?q=" + q + "&m=10"} {
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
// retrieval order, and an author no table holds.
func TestRouterRefusesUnmergeableAnswers(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.QueryEscape(ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text)
	paths := []string{"/experts?q=" + q + "&m=40&n=10", "/papers?q=" + q + "&m=10"}
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
}

// TestShardPapersRequest: the one shard route answers 400 to a request
// without a query or a positive m, frames whatever detail was asked for,
// and the retired experts route is not there at all.
func TestShardPapersRequest(t *testing.T) {
	_, eng := equivEngine(t)
	se, err := NewShardEngine(eng, ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng)
	srv.SetReady(true)
	MountShard(srv, se)
	do := func(method, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		return rec
	}
	for target, want := range map[string]int{
		"/shard/papers":               http.StatusBadRequest,
		"/shard/papers?m=5":           http.StatusBadRequest,
		"/shard/papers?q=graph":       http.StatusBadRequest,
		"/shard/papers?q=graph&m=0":   http.StatusBadRequest,
		"/shard/papers?q=graph&m=ten": http.StatusBadRequest,
		"/shard/papers?q=graph&m=5":   http.StatusOK,
		"/shard/experts":              http.StatusNotFound,
	} {
		if got := do(http.MethodGet, target).Code; got != want {
			t.Errorf("GET %s: status %d, want %d", target, got, want)
		}
	}
	if got := do(http.MethodPost, "/shard/experts").Code; got != http.StatusNotFound {
		t.Errorf("POST /shard/experts: status %d, want 404", got)
	}
	for detail, want := range map[string][3]bool{ // lists, table, text
		"":                  {false, false, false},
		"&authors=1":        {true, true, false},
		"&meta=1":           {true, true, true},
		"&authors=0&meta=0": {false, false, false},
	} {
		resp, err := decodePapersResponse(do(http.MethodGet, "/shard/papers?q=graph&m=5"+detail).Body.Bytes())
		if err != nil || len(resp.Papers) != 5 {
			t.Fatalf("detail %q: %d papers, err %v", detail, len(resp.Papers), err)
		}
		got := [3]bool{len(resp.Papers[0].Authors) > 0, len(resp.Authors) > 0, resp.Papers[0].Text != ""}
		if got != want {
			t.Errorf("detail %q: lists, table, text = %v, want %v", detail, got, want)
		}
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
