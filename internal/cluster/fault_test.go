package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/ctxtest"
	"expertfind/internal/hetgraph"
	"expertfind/internal/serve"
)

// faultGate wraps a shard handler with switchable failure modes: while
// broken it answers 500 to everything (including /readyz, so probes see
// it down too); while slowed it delays every response.
type faultGate struct {
	inner  http.Handler
	broken atomic.Bool
	delay  atomic.Int64 // nanoseconds
}

func (f *faultGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := f.delay.Load(); d > 0 {
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
			RetryBackoff:  time.Millisecond,
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

// TestHedgedRequests checks the tail-latency path: a slow replica must
// trigger a hedge to its peer after the configured delay, the hedge must
// win, and the hedge counters must reach /metrics.
func TestHedgedRequests(t *testing.T) {
	ds, eng := equivEngine(t)
	queries := ds.Queries(6, rand.New(rand.NewSource(33)))
	const m, n = 40, 10

	var gate *faultGate
	topo := startTopology(t, eng, 2,
		RouterConfig{QueryTimeout: 10 * time.Second},
		ClientConfig{
			HedgeAfter:   5 * time.Millisecond,
			RetryBackoff: time.Millisecond,
		},
		map[int]int{0: 2},
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard == 0 && rep == 0 {
				gate = &faultGate{inner: inner}
				return gate
			}
			return inner
		})

	gate.delay.Store(int64(200 * time.Millisecond))
	for _, q := range queries {
		want, _, err := eng.TopExperts(q.Text, m, n)
		if err != nil {
			t.Fatal(err)
		}
		got := queryExperts(t, topo.routerURL, q.Text, m, n)
		assertSameRanking(t, q.Text, got, want)
	}

	mtx := scrapeMetrics(t, topo.routerURL)
	if !strings.Contains(mtx, "expertfind_cluster_hedges_total") {
		t.Fatal("/metrics is missing expertfind_cluster_hedges_total; no hedge fired")
	}
	if !strings.Contains(mtx, "expertfind_cluster_hedge_wins_total") {
		t.Error("/metrics is missing expertfind_cluster_hedge_wins_total; hedges never won")
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
		ClientConfig{Retries: 1, RetryBackoff: time.Millisecond, HedgeAfter: -1},
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
// which is shown every exchange that ended 200 — path, request body,
// response body — and returns the response body to send.
func interceptShard(inner http.Handler, see func(path string, req, resp []byte) []byte) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/shard/") {
			inner.ServeHTTP(w, r)
			return
		}
		req, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(req))
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			body = see(r.URL.Path, req, body)
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
				return interceptShard(inner, func(_ string, _, body []byte) []byte {
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

// TestOldShardJSONIs502: a shard that still answers the JSON protocol (or
// anything else that is not a frame) is a typed decode error that reaches
// the client as 502, never a panic or a silently empty merge.
func TestOldShardJSONIs502(t *testing.T) {
	ds, eng := equivEngine(t)
	q := url.QueryEscape(ds.Queries(1, rand.New(rand.NewSource(5)))[0].Text)

	var onlyExperts atomic.Bool
	topo := startTopology(t, eng, 2, RouterConfig{QueryTimeout: 5 * time.Second},
		ClientConfig{HedgeAfter: -1}, nil,
		func(shard, rep int, inner http.Handler) http.Handler {
			if shard != 0 {
				return inner
			}
			return interceptShard(inner, func(path string, _, body []byte) []byte {
				switch {
				case path == "/shard/experts":
					return []byte(`{"shard":0,"experts":[],"threshold":0,"exhausted":true,"candidates":0}`)
				case onlyExperts.Load():
					return body
				}
				return []byte(`{"shard":0,"papers":[]}`)
			})
		})
	for _, stage := range []string{"bad papers payload", "bad experts payload"} {
		code, body := routerStatus(t, topo, "/experts?q="+q+"&m=40&n=10")
		if code != http.StatusBadGateway || !strings.Contains(body, stage) || !strings.Contains(body, "bad shard frame") {
			t.Fatalf("JSON-speaking shard: status %d, want 502 with %q and the frame error: %s", code, stage, body)
		}
		onlyExperts.Store(true)
	}
}

// TestShardRefusesMalformedExpertsRequest: the shard side of the decoder.
// Anything that is not one well-formed request frame is a 400 — the
// router's bug, not a shard failure — and the 8 MiB body cap stands.
func TestShardRefusesMalformedExpertsRequest(t *testing.T) {
	_, eng := equivEngine(t)
	se, err := NewShardEngine(eng, ShardConfig{ID: 0, Of: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng)
	srv.SetReady(true)
	MountShard(srv, se)
	post := func(body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/shard/experts", strings.NewReader(string(body))))
		return rec.Code, rec.Body.Bytes()
	}

	var owned []int32
	for id := int32(0); len(owned) < 2; id++ {
		if se.owned[hetgraph.NodeID(id)] {
			owned = append(owned, id)
		}
	}
	request := func(papers ...RankedPaper) []byte { return encodeRequest(ExpertsRequest{Papers: papers}) }
	good := request(RankedPaper{ID: owned[0], Rank: 1})
	if got, _ := post(good); got != http.StatusOK {
		t.Fatalf("well-formed request: status %d", got)
	}
	if got, _ := post(request(RankedPaper{ID: owned[1], Rank: 7}, RankedPaper{ID: owned[0], Rank: 2})); got != http.StatusOK {
		t.Fatalf("two papers out of rank order: status %d", got)
	}
	oversize := encodeRequest(ExpertsRequest{Papers: make([]RankedPaper, (8<<20)/8)}) // 8 MiB + header
	for name, body := range map[string][]byte{
		"empty":         nil,
		"old JSON":      []byte(`{"papers":[{"id":1,"rank":1}],"limit":40}`),
		"response tag":  append([]byte{tagExperts}, good[1:]...),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"lying count":   {tagRequest, frameVersion, 0, 0, 0, 0x40},
		"past the cap":  oversize,
		// Well-formed frames a scorer must not sum: the paper would count
		// twice, and equal ranks have no summation order.
		"paper listed twice":  request(RankedPaper{ID: owned[0], Rank: 1}, RankedPaper{ID: owned[1], Rank: 2}, RankedPaper{ID: owned[0], Rank: 3}),
		"two papers one rank": request(RankedPaper{ID: owned[0], Rank: 4}, RankedPaper{ID: owned[1], Rank: 4}),
		"rank zero":           request(RankedPaper{ID: owned[0], Rank: 0}),
	} {
		code, answer := post(body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if _, err := decodeExpertsResponse(answer); err == nil {
			t.Errorf("%s: the refusal carries a ranking", name)
		}
	}
}
