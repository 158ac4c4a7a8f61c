package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	s := FormatTraceContext(tc)
	if !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
		t.Fatalf("unexpected header form %q", s)
	}
	got, ok := ParseTraceContext(s)
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}

	for _, bad := range []string{
		"",
		"00",
		"01-" + tc.Trace.String() + "-" + tc.Span.String() + "-01", // unknown version
		"00-shorttrace-" + tc.Span.String() + "-01",
		"00-" + tc.Trace.String() + "-zzzzzzzzzzzzzzzz-01",               // non-hex span
		"00-" + strings.Repeat("0", 32) + "-" + tc.Span.String() + "-01", // zero trace id
		"00-" + tc.Trace.String() + "-" + tc.Span.String(),               // missing flags
	} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", bad)
		}
	}
}

func TestTraceSpanIdentity(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "query")
	if root.TraceID().IsZero() || root.ID().IsZero() {
		t.Fatal("root span missing trace or span id")
	}
	if !root.ParentID().IsZero() {
		t.Fatalf("fresh root has parent %s", root.ParentID())
	}
	_, child := StartSpan(ctx, "encode")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %s != root trace %s", child.TraceID(), root.TraceID())
	}
	if child.ParentID() != root.ID() {
		t.Fatalf("child parent %s != root id %s", child.ParentID(), root.ID())
	}
	if child.ID() == root.ID() {
		t.Fatal("child reused root span id")
	}
}

func TestTraceRemoteJoin(t *testing.T) {
	remote := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	ctx := ContextWithRemote(context.Background(), remote)
	_, root := StartSpan(ctx, "shard_experts")
	if root.TraceID() != remote.Trace {
		t.Fatalf("root trace %s, want remote %s", root.TraceID(), remote.Trace)
	}
	if root.ParentID() != remote.Span {
		t.Fatalf("root parent %s, want remote span %s", root.ParentID(), remote.Span)
	}
}

func TestTraceInject(t *testing.T) {
	h := http.Header{}
	if InjectTrace(context.Background(), h) {
		t.Fatal("injected a trace from an empty context")
	}

	ctx, span := StartSpan(context.Background(), "fanout")
	if !InjectTrace(ctx, h) {
		t.Fatal("no header injected from span context")
	}
	tc, ok := ParseTraceContext(h.Get(TraceHeader))
	if !ok {
		t.Fatalf("injected header unparseable: %q", h.Get(TraceHeader))
	}
	if tc.Trace != span.TraceID() || tc.Span != span.ID() {
		t.Fatalf("injected %+v, want trace=%s span=%s", tc, span.TraceID(), span.ID())
	}

	// A context with only a remote trace (no local span yet) relays it.
	h2 := http.Header{}
	remote := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	if !InjectTrace(ContextWithRemote(context.Background(), remote), h2) {
		t.Fatal("remote-only context not injected")
	}
	if got, _ := ParseTraceContext(h2.Get(TraceHeader)); got != remote {
		t.Fatalf("relayed %+v, want %+v", got, remote)
	}
}

func TestTraceCapture(t *testing.T) {
	ctx, capture := WithTraceCapture(context.Background())
	if capture.Root() != nil {
		t.Fatal("capture non-empty before any span")
	}
	sctx, root := StartSpan(ctx, "query")
	_, child := StartSpan(sctx, "encode")
	child.End()
	root.End()

	got := capture.Root()
	if got != root {
		t.Fatalf("captured %v, want the root span", got)
	}
	// Only the first root is captured; a second root under the same
	// capture (e.g. a later handler phase) must not displace it.
	_, other := StartSpan(ctx, "other")
	other.End()
	if capture.Root() != root {
		t.Fatal("second root displaced the captured root")
	}
	if TraceIDFromContext(ctx) != root.TraceID().String() {
		t.Fatalf("TraceIDFromContext = %q, want %s", TraceIDFromContext(ctx), root.TraceID())
	}
}

func TestTraceSpanTree(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	ctx, root := StartSpan(ctx, "query")
	root.Annotate("query", "graph embedding")
	cctx, enc := StartSpan(ctx, "encode")
	enc.End()
	_, rank := StartSpan(ctx, "rank")
	rank.Annotate("round", "2")
	rank.End()
	_ = cctx
	root.End()

	// Graft a remote subtree like the router does with a shard envelope.
	remote := SpanNode{Name: "shard_experts", SpanID: NewSpanID().String(),
		Attrs: map[string]string{"shard": "1"}}
	root.Graft(remote)

	tree := root.Tree()
	if tree.Name != "query" {
		t.Fatalf("root name %q", tree.Name)
	}
	if tree.SpanID != root.ID().String() {
		t.Fatalf("root span id %q != %s", tree.SpanID, root.ID())
	}
	if len(tree.Children) != 3 {
		t.Fatalf("children = %d, want 3 (encode, rank, graft)", len(tree.Children))
	}
	// Short names: hierarchy lives in the tree, not the name.
	if tree.Children[0].Name != "encode" || tree.Children[1].Name != "rank" {
		t.Fatalf("child names %q, %q", tree.Children[0].Name, tree.Children[1].Name)
	}
	if tree.Children[1].Attrs["round"] != "2" {
		t.Fatal("rank attrs lost in export")
	}
	graft := tree.Children[2]
	if graft.Name != "shard_experts" || graft.ParentID != root.ID().String() {
		t.Fatalf("graft not re-parented: %+v", graft)
	}
	if !tree.HasAttr("shard") {
		t.Fatal("HasAttr failed to find grafted attr")
	}
	if tree.Find("rank") == nil || tree.Find("shard_experts") == nil {
		t.Fatal("Find failed on exported tree")
	}
	if tree.Find("nope") != nil {
		t.Fatal("Find invented a node")
	}
	// Exported trees must round-trip through JSON (wire envelope).
	b, err := json.Marshal(tree)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back SpanNode
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Children[2].Attrs["shard"] != "1" {
		t.Fatal("graft attrs lost over JSON")
	}
}

func TestTraceStageMetricNamesUnchanged(t *testing.T) {
	// Trace identity must not leak into the stage histogram's label set:
	// the series is still keyed by the hierarchical span path alone.
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	ctx, root := StartSpan(ctx, "query")
	_, enc := StartSpan(ctx, "encode")
	enc.End()
	root.End()
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{`stage="query"`, `stage="query/encode"`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in exposition:\n%s", want, out)
		}
	}
}

// TestTraceExemplarExposition: a traced span's duration is an ordinary
// observation. The exposition carries no exemplar suffix and no
// OpenMetrics terminator, which the 0.0.4 parser would reject.
func TestTraceExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	ctx, root := StartSpan(WithRegistry(context.Background(), reg), "query")
	_, enc := StartSpan(ctx, "encode")
	enc.End()
	root.End()
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	if !strings.Contains(out, `expertfind_stage_seconds_count{stage="query/encode"} 1`+"\n") {
		t.Fatalf("traced span not counted:\n%s", out)
	}
	for _, bad := range []string{"trace_id", " # ", "# EOF"} {
		if strings.Contains(out, bad) {
			t.Errorf("exposition carries %q:\n%s", bad, out)
		}
	}
}

func TestRequestIDs(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q has length %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func mkRecord(id string, durMs float64) TraceRecord {
	return TraceRecord{
		TraceID:    id,
		Route:      "/experts",
		Status:     200,
		Start:      time.Unix(0, 0),
		DurationMs: durMs,
		Root:       SpanNode{Name: "query"},
	}
}

func TestTraceStoreKeepRules(t *testing.T) {
	st := NewTraceStore(TracePolicy{Capacity: 16, SlowestN: 2, SampleEvery: 4})

	// Error/hedged are kept unconditionally, in that precedence.
	if reason, kept := st.Add(mkRecord("e1", 1), KeepFlags{Error: true, Hedged: true}); !kept || reason != KeepError {
		t.Fatalf("error trace: reason=%q kept=%v", reason, kept)
	}
	for _, id := range []string{"h1", "h2"} {
		if reason, _ := st.Add(mkRecord(id, 1), KeepFlags{Hedged: true}); reason != KeepHedged {
			t.Fatalf("hedged trace %s: reason=%q", id, reason)
		}
	}

	// Slowest-N: with fewer than N slower records retained, it's slow.
	if reason, _ := st.Add(mkRecord("s1", 50), KeepFlags{}); reason != KeepSlow {
		t.Fatalf("first slow trace: reason=%q", reason)
	}
	if reason, _ := st.Add(mkRecord("s2", 40), KeepFlags{}); reason != KeepSlow {
		t.Fatalf("second slow trace: reason=%q", reason)
	}
	// Now two retained records are slower than 1ms, so an ordinary
	// trace is not "slow" — and with offered=6, not sampled either.
	if reason, kept := st.Add(mkRecord("fast", 0.5), KeepFlags{}); kept {
		t.Fatalf("fast trace kept as %q", reason)
	}

	if got := st.Len(); got != 5 {
		t.Fatalf("retained %d, want 5", got)
	}
	if recs := st.Get("h1"); len(recs) != 1 || recs[0].Kept != KeepHedged {
		t.Fatalf("Get(h1) = %+v", recs)
	}
	if recs := st.Get("fast"); len(recs) != 0 {
		t.Fatal("dropped trace retrievable")
	}

	idx := st.Index()
	if len(idx) != 5 {
		t.Fatalf("index len %d", len(idx))
	}
	if idx[0].TraceID != "s2" {
		t.Fatalf("index not newest-first: %q", idx[0].TraceID)
	}
}

// TestTraceStoreSlowColdStart: until the ring holds SlowestN records,
// every trace would trivially rank in the slowest N, so the slow rule
// stays disarmed and ordinary cold-start traffic falls through to the
// sampling rule instead of being mislabelled "slow".
func TestTraceStoreSlowColdStart(t *testing.T) {
	st := NewTraceStore(TracePolicy{Capacity: 16, SlowestN: 2, SampleEvery: 4})
	if reason, kept := st.Add(mkRecord("t0", 1), KeepFlags{}); !kept || reason != KeepSampled {
		t.Fatalf("first cold-start trace: reason=%q kept=%v, want sampled", reason, kept)
	}
	// Ring holds 1 < SlowestN: still disarmed, and offered=2 is off the
	// sampling stride, so an ordinary trace is dropped, not kept "slow".
	if reason, kept := st.Add(mkRecord("t1", 5), KeepFlags{}); kept {
		t.Fatalf("cold-start trace kept as %q", reason)
	}
	// A flag-kept record brings the ring to SlowestN; the rule arms.
	st.Add(mkRecord("h0", 1), KeepFlags{Hedged: true})
	if reason, _ := st.Add(mkRecord("t2", 50), KeepFlags{}); reason != KeepSlow {
		t.Fatalf("armed slow rule: reason=%q, want slow", reason)
	}
}

func TestTraceStoreSampling(t *testing.T) {
	st := NewTraceStore(TracePolicy{Capacity: 64, SlowestN: -1, SampleEvery: 4})
	kept := 0
	for i := 0; i < 16; i++ {
		if _, ok := st.Add(mkRecord(fmt.Sprintf("t%d", i), 1), KeepFlags{}); ok {
			kept++
		}
	}
	if kept != 4 {
		t.Fatalf("sampled %d of 16 with SampleEvery=4, want 4", kept)
	}
	// Disabled sampling keeps nothing ordinary.
	st2 := NewTraceStore(TracePolicy{Capacity: 64, SlowestN: -1, SampleEvery: -1})
	if _, ok := st2.Add(mkRecord("x", 1), KeepFlags{}); ok {
		t.Fatal("record kept with all tail rules disabled")
	}
}

func TestTraceStoreRingEviction(t *testing.T) {
	st := NewTraceStore(TracePolicy{Capacity: 4, SlowestN: -1, SampleEvery: 1})
	for i := 0; i < 10; i++ {
		st.Add(mkRecord(fmt.Sprintf("t%d", i), float64(i)), KeepFlags{})
	}
	if st.Len() != 4 {
		t.Fatalf("ring len %d, want capacity 4", st.Len())
	}
	idx := st.Index()
	want := []string{"t9", "t8", "t7", "t6"}
	for i, w := range want {
		if idx[i].TraceID != w {
			t.Fatalf("index[%d] = %q, want %q (got %+v)", i, idx[i].TraceID, w, idx)
		}
	}
	if len(st.Get("t0")) != 0 {
		t.Fatal("evicted trace still retrievable")
	}
}

func TestTraceStoreMultipleRecordsPerTrace(t *testing.T) {
	// A shard can serve two sub-requests of one query (a hedged or retried
	// /shard/papers): two records share one trace id and Get returns both.
	st := NewTraceStore(TracePolicy{Capacity: 8, SlowestN: -1, SampleEvery: 1})
	a := mkRecord("shared", 1)
	a.Route = "/shard/papers"
	b := mkRecord("shared", 2)
	b.Route = "/shard/papers#retry"
	st.Add(a, KeepFlags{})
	st.Add(b, KeepFlags{})
	recs := st.Get("shared")
	if len(recs) != 2 {
		t.Fatalf("Get returned %d records, want 2", len(recs))
	}
	if recs[0].Route != "/shard/papers" || recs[1].Route != "/shard/papers#retry" {
		t.Fatalf("records out of order: %+v", recs)
	}
}
