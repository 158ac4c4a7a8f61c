package cluster

import (
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
