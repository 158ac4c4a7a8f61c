package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// keepAll retains every offered trace (subject only to ring capacity),
// so assertions never race the sampling rules.
func keepAll() obs.TracePolicy {
	return obs.TracePolicy{Capacity: 128, SlowestN: -1, SampleEvery: 1}
}

// tracedTopology is a cluster deployment with trace stores attached on
// the router and on every shard replica.
type tracedTopology struct {
	routerURL   string
	router      *Router
	shardStores []*obs.TraceStore // one per (shard, replica), row-major
}

// startTracedTopology mirrors startTopology but wires a trace store into
// the router and each shard server, the way expertserve does with
// -trace-capacity set.
func startTracedTopology(t *testing.T, eng *core.Engine, shards int, rcfg RouterConfig,
	ccfg ClientConfig, replicasPerShard map[int]int) *tracedTopology {
	t.Helper()
	out := &tracedTopology{}
	addrs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		se, err := NewShardEngine(eng, ShardConfig{ID: i, Of: shards})
		if err != nil {
			t.Fatal(err)
		}
		reps := 1
		if replicasPerShard != nil && replicasPerShard[i] > 0 {
			reps = replicasPerShard[i]
		}
		for r := 0; r < reps; r++ {
			srv := serve.New(eng)
			srv.SetReady(true)
			srv.Traces = obs.NewTraceStore(keepAll())
			MountShard(srv, se)
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			addrs[i] = append(addrs[i], strings.TrimPrefix(ts.URL, "http://"))
			out.shardStores = append(out.shardStores, srv.Traces)
		}
	}
	reg := obs.NewRegistry()
	client, err := NewShardClient(addrs, ccfg, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	router := NewRouter(client, rcfg, reg, nil)
	router.Traces = obs.NewTraceStore(keepAll())
	rs := httptest.NewServer(router)
	t.Cleanup(rs.Close)
	out.routerURL = rs.URL
	out.router = router
	return out
}

// queryExpertsDebug is queryExperts with ?debug=1 set, so the response
// carries the trace id.
func queryExpertsDebug(t *testing.T, base, q string, m, n int) serve.ExpertsResponse {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/experts?q=%s&m=%d&n=%d&debug=1",
		base, url.QueryEscape(q), m, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query %q: status %d: %s", q, resp.StatusCode, b)
	}
	var er serve.ExpertsResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("query %q: bad payload: %v", q, err)
	}
	return er
}

// TestTraceRequestIDForwarded is the regression test for the fan-out
// header gap: the router's request ID and trace context must reach the
// shard on every sub-request, with span collection asked for only when
// the context carries the collect flag.
func TestTraceRequestIDForwarded(t *testing.T) {
	var mu sync.Mutex
	var got []http.Header
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.Header.Clone())
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	client, err := NewShardClient([][]string{{strings.TrimPrefix(ts.URL, "http://")}},
		ClientConfig{HedgeAfter: -1}, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.WithValue(context.Background(), requestIDKey{}, "req-abc123")
	sctx, span := obs.StartSpan(ctx, "query")
	if _, err := client.Get(sctx, 0, "/shard/papers?q=x&m=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(withCollect(sctx), 0, "/shard/papers?q=x&m=1"); err != nil {
		t.Fatal(err)
	}
	span.End()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("shard saw %d requests, want 2", len(got))
	}
	for i, h := range got {
		if id := h.Get("X-Request-ID"); id != "req-abc123" {
			t.Errorf("request %d: X-Request-ID = %q, want req-abc123", i, id)
		}
		tc, ok := obs.ParseTraceContext(h.Get(obs.TraceHeader))
		if !ok {
			t.Fatalf("request %d: missing or bad %s: %q", i, obs.TraceHeader, h.Get(obs.TraceHeader))
		}
		if tc.Trace != span.TraceID() {
			t.Errorf("request %d: trace id %s, want %s", i, tc.Trace, span.TraceID())
		}
	}
	if got[0].Get(obs.CollectHeader) != "" {
		t.Error("collect header sent without the collect flag")
	}
	if got[1].Get(obs.CollectHeader) != "1" {
		t.Error("collect header missing with the collect flag set")
	}
}

// TestBudgetContext covers the shard-side budget header edge cases.
func TestBudgetContext(t *testing.T) {
	mkReq := func(budget string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/shard/papers", nil)
		if budget != "" {
			r.Header.Set(BudgetHeader, budget)
		}
		return r
	}

	// Missing, zero, negative and non-numeric budgets leave the context
	// unbounded rather than guessing a deadline.
	for _, budget := range []string{"", "0", "-50", "soon", "12.5"} {
		ctx, cancel := budgetContext(context.Background(), mkReq(budget))
		if _, ok := ctx.Deadline(); ok {
			t.Errorf("budget %q: unexpected deadline", budget)
		}
		cancel()
	}

	// A positive budget bounds the context.
	ctx, cancel := budgetContext(context.Background(), mkReq("250"))
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("budget 250: no deadline")
	}
	if until := time.Until(dl); until <= 0 || until > 250*time.Millisecond {
		t.Fatalf("budget 250: deadline %v away", until)
	}
	cancel()

	// A budget LONGER than the caller's remaining deadline must not
	// extend it: the tighter bound wins.
	parent, pcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer pcancel()
	pdl, _ := parent.Deadline()
	ctx, cancel = budgetContext(parent, mkReq("10000"))
	defer cancel()
	dl, ok = ctx.Deadline()
	if !ok {
		t.Fatal("no deadline with bounded parent")
	}
	if dl.After(pdl) {
		t.Fatalf("budget extended the parent deadline: %v > %v", dl, pdl)
	}
}

// TestTraceAssemblyAcrossCluster is the tentpole's end-to-end check over
// real loopback HTTP: one query through router + 3 shards yields ONE
// assembled trace — a single trace id shared by the router's spans and
// every shard's grafted subtree — while rankings stay bit-identical to
// single node.
func TestTraceAssemblyAcrossCluster(t *testing.T) {
	ds, eng := equivEngine(t)
	q := ds.Queries(1, rand.New(rand.NewSource(21)))[0]
	const m, n, shards = 40, 10, 3

	topo := startTracedTopology(t, eng, shards, RouterConfig{}, ClientConfig{}, nil)

	want, _, err := eng.TopExperts(q.Text, m, n)
	if err != nil {
		t.Fatal(err)
	}
	got := queryExpertsDebug(t, topo.routerURL, q.Text, m, n)
	assertSameRanking(t, q.Text, got, want)

	if got.Debug == nil || got.Debug.TraceID == "" {
		t.Fatalf("debug=1 response carries no trace id: %+v", got.Debug)
	}
	traceID := got.Debug.TraceID
	if len(got.Debug.Stages) == 0 {
		t.Fatal("debug=1 response has no stage breakdown")
	}

	// The assembled trace is retrievable from the router by id.
	resp, err := http.Get(topo.routerURL + "/debug/traces/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s: status %d: %s", traceID, resp.StatusCode, body)
	}
	var tr serve.TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("bad trace payload: %v", err)
	}
	if len(tr.Records) != 1 {
		t.Fatalf("router holds %d records for the trace, want 1", len(tr.Records))
	}
	rec := tr.Records[0]
	if rec.TraceID != traceID || rec.Root.Name != "query" {
		t.Fatalf("unexpected record: trace=%s root=%q", rec.TraceID, rec.Root.Name)
	}

	// Router-side structure: ONE scatter span holding one fan-out per shard,
	// each with that shard's own subtree grafted in under it (carrying its
	// shard attr), then the merge and the rank — and no second round.
	names := map[string]int{}
	walkNodes(rec.Root, func(nd obs.SpanNode) { names[nd.Name]++ })
	if names["scatter_papers"] != 1 || names["merge_papers"] != 1 || names["rank"] != 1 ||
		names["fanout"] != shards || names["shard_papers"] != shards ||
		names["scatter_experts"]+names["shard_experts"] != 0 {
		t.Fatalf("assembled trace has spans %v; want one scatter_papers over %d fanout/shard_papers, one merge_papers, one rank", names, shards)
	}
	scatter := findNode(rec.Root, "scatter_papers")
	if len(scatter.Children) != shards {
		t.Fatalf("scatter_papers has %d children, want %d fan-outs", len(scatter.Children), shards)
	}
	seen := map[string]bool{}
	for _, fanout := range scatter.Children {
		sub := findNode(fanout, "shard_papers")
		if fanout.Name != "fanout" || sub == nil || sub.Attrs["shard"] != fanout.Attrs["shard"] {
			t.Fatalf("fan-out %+v does not hold its shard's grafted subtree", fanout)
		}
		seen[sub.Attrs["shard"]] = true
	}
	for i := 0; i < shards; i++ {
		if !seen[strconv.Itoa(i)] {
			t.Errorf("no grafted shard_papers subtree for shard %d (saw %v)", i, seen)
		}
	}
	if sp := findNode(rec.Root, "shard_papers"); sp != nil && findNode(*sp, "search") == nil {
		t.Error("grafted shard subtree lost its pipeline spans")
	}

	// Cross-node identity: each shard's own trace store retains records
	// under the SAME trace id — the header propagated, nothing re-minted.
	for i, store := range topo.shardStores {
		recs := store.Get(traceID)
		if len(recs) == 0 {
			t.Errorf("shard server %d has no records for trace %s", i, traceID)
			continue
		}
		for _, sr := range recs {
			if sr.Root.ParentID == "" {
				t.Errorf("shard record root has no parent span: joined the wrong trace")
			}
		}
	}

	// The trace index lists the query.
	iresp, err := http.Get(topo.routerURL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	var idx serve.TraceIndexResponse
	if err := json.NewDecoder(iresp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range idx.Traces {
		if s.TraceID == traceID {
			found = true
			if s.Route != "/experts" || s.Query == "" {
				t.Errorf("index summary incomplete: %+v", s)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s missing from index (%d entries)", traceID, idx.Count)
	}
}

// TestTraceHedgeVisible forces a hedge on two-replica shards and checks
// it surfaces as a sibling rpc span with the hedge attr, and that the
// trace is kept under the hedge rule.
func TestTraceHedgeVisible(t *testing.T) {
	ds, eng := equivEngine(t)
	q := ds.Queries(1, rand.New(rand.NewSource(33)))[0]
	const m, n = 40, 10

	// HedgeAfter of 1ns hedges every sub-request against the second
	// replica; rankings must be unaffected (replicas are identical).
	// EjectAfter 1 arms the ejection-regression check below: if losing a
	// hedge race counted as a replica failure, a single query would eject
	// the loser.
	topo := startTracedTopology(t, eng, 2, RouterConfig{},
		ClientConfig{HedgeAfter: time.Nanosecond, EjectAfter: 1}, map[int]int{0: 2, 1: 2})

	want, _, err := eng.TopExperts(q.Text, m, n)
	if err != nil {
		t.Fatal(err)
	}
	got := queryExpertsDebug(t, topo.routerURL, q.Text, m, n)
	assertSameRanking(t, q.Text, got, want)

	// Cancelled hedge losers must not advance the replica failure streak:
	// every replica stays alive after hedged queries.
	hresp, err := http.Get(topo.routerURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var rh RouterHealth
	if err := json.NewDecoder(hresp.Body).Decode(&rh); err != nil {
		t.Fatal(err)
	}
	for shard, alive := range rh.AliveReplicas {
		if alive != 2 {
			t.Fatalf("shard %d has %d alive replicas after hedging, want 2 (hedge losers counted as failures?)", shard, alive)
		}
	}

	if got.Debug == nil || got.Debug.TraceID == "" {
		t.Fatal("debug=1 response carries no trace id")
	}
	recs := topo.router.Traces.Get(got.Debug.TraceID)
	if len(recs) != 1 {
		t.Fatalf("router holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Root.HasAttr("hedge") {
		t.Fatal("no hedged rpc span in the assembled trace")
	}
	if rec.Kept != obs.KeepHedged {
		t.Fatalf("kept = %q, want %q", rec.Kept, obs.KeepHedged)
	}
	hedges := 0
	walkNodes(rec.Root, func(nd obs.SpanNode) {
		if nd.Name == "rpc" && nd.Attrs["hedge"] == "1" {
			hedges++
		}
	})
	if hedges == 0 {
		t.Fatal("hedge attr present but on no rpc span")
	}
}

// TestTraceHedgeLoserSpanClosed: when a hedge race resolves, the losing
// attempt's span must be closed — with a cancelled mark — before the
// fan-out returns, because the caller can serialize the trace tree
// immediately afterwards and an open span would show a still-running
// clock there.
func TestTraceHedgeLoserSpanClosed(t *testing.T) {
	newReplica := func(delay time.Duration) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
			w.Write([]byte("{}"))
		}))
		t.Cleanup(ts.Close)
		return strings.TrimPrefix(ts.URL, "http://")
	}
	// Whichever replica is picked as primary, the fast one wins the race
	// and the slow one is abandoned mid-sleep.
	fast := newReplica(30 * time.Millisecond)
	slow := newReplica(500 * time.Millisecond)

	client, err := NewShardClient([][]string{{fast, slow}},
		ClientConfig{HedgeAfter: 5 * time.Millisecond}, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sctx, root := obs.StartSpan(context.Background(), "query")
	if _, err := client.Get(sctx, 0, "/shard/papers?q=x&m=1"); err != nil {
		t.Fatal(err)
	}
	root.End()

	// Serialize well after the win but while the loser handler is still
	// sleeping: an un-closed loser span would export a running clock.
	time.Sleep(150 * time.Millisecond)
	var rpcs []obs.SpanNode
	walkNodes(root.Tree(), func(nd obs.SpanNode) {
		if nd.Name == "rpc" {
			rpcs = append(rpcs, nd)
		}
	})
	if len(rpcs) != 2 {
		t.Fatalf("%d rpc spans, want 2 (primary + hedge)", len(rpcs))
	}
	cancelled := 0
	for _, nd := range rpcs {
		if nd.Attrs["cancelled"] != "1" {
			continue
		}
		cancelled++
		if d := time.Duration(nd.DurationNano); d > 120*time.Millisecond {
			t.Errorf("cancelled rpc span duration %v: clock not frozen at cancellation", d)
		}
	}
	if cancelled != 1 {
		t.Fatalf("%d cancelled rpc spans, want exactly 1 (the hedge loser): %+v", cancelled, rpcs)
	}
}

// walkNodes visits a span tree pre-order.
func walkNodes(n obs.SpanNode, f func(obs.SpanNode)) {
	f(n)
	for _, c := range n.Children {
		walkNodes(c, f)
	}
}

// findNode returns the first node (pre-order) named name, or nil.
func findNode(n obs.SpanNode, name string) *obs.SpanNode {
	var found *obs.SpanNode
	walkNodes(n, func(nd obs.SpanNode) {
		if found == nil && nd.Name == name {
			found = &nd
		}
	})
	return found
}
