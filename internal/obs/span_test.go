package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestSpanHierarchyAndNaming(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	ctx, root := StartSpan(ctx, "build")
	cctx, sampling := StartSpan(ctx, "sampling")
	_, inner := StartSpan(cctx, "positives")
	time.Sleep(time.Millisecond)
	inner.End()
	sampling.End()
	_, training := StartSpan(ctx, "training")
	training.End()
	root.End()

	if root.Name() != "build" || sampling.Name() != "build/sampling" ||
		inner.Name() != "build/sampling/positives" {
		t.Errorf("names: %q %q %q", root.Name(), sampling.Name(), inner.Name())
	}
	tree := root.Tree()
	if len(tree.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tree.Children))
	}
	if c := tree.Children[0]; c.Name != "sampling" || c.SpanID != sampling.ID().String() {
		t.Errorf("first child %q (%s), want the sampling span", c.Name, c.SpanID)
	}
	if tree.DurationNano < tree.Children[0].DurationNano {
		t.Error("parent shorter than child")
	}
	if childrenTotal(tree) > tree.DurationNano {
		t.Error("children total exceeds parent duration")
	}

	// Every ended span landed in the stage histogram.
	for _, stage := range []string{"build", "build/sampling", "build/sampling/positives", "build/training"} {
		h := reg.Histogram("expertfind_stage_seconds", "", nil, L("stage", stage))
		if h.Count() != 1 {
			t.Errorf("stage %q: %d observations, want 1", stage, h.Count())
		}
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	reg := NewRegistry()
	_, s := StartSpan(WithRegistry(context.Background(), reg), "once")
	d1 := s.End()
	time.Sleep(time.Millisecond)
	d2 := s.End()
	if d1 != d2 {
		t.Errorf("End not idempotent: %v vs %v", d1, d2)
	}
	h := reg.Histogram("expertfind_stage_seconds", "", nil, L("stage", "once"))
	if h.Count() != 1 {
		t.Errorf("double End recorded %d observations", h.Count())
	}
}

func TestSpanWithoutRegistry(t *testing.T) {
	// No registry in the context: spans still time, nothing panics.
	ctx, root := StartSpan(context.Background(), "solo")
	_, child := StartSpan(ctx, "step")
	if child.End() < 0 || root.End() < 0 {
		t.Error("negative duration")
	}
}

func TestSpanDurationsSumConsistency(t *testing.T) {
	// The contract QueryStats.Total relies on: a parent span covering
	// back-to-back children is at least their sum.
	ctx, root := StartSpan(context.Background(), "query")
	for _, name := range []string{"encode", "retrieve", "rank"} {
		_, s := StartSpan(ctx, name)
		time.Sleep(2 * time.Millisecond)
		s.End()
	}
	total := root.End()
	tree := root.Tree()
	if sum := time.Duration(childrenTotal(tree)); total < sum {
		t.Errorf("total %v < children sum %v", total, sum)
	}
	var names []string
	for _, c := range tree.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "encode,retrieve,rank" {
		t.Errorf("children order: %s", got)
	}
}

// childrenTotal sums the durations of n's direct children: the part of
// the span its named sub-phases account for.
func childrenTotal(n SpanNode) int64 {
	var t int64
	for _, c := range n.Children {
		t += c.DurationNano
	}
	return t
}

// TestSpanTraceIDString: every span of a trace reports the root's trace
// id, for a fresh trace and for one joined from a remote context.
func TestSpanTraceIDString(t *testing.T) {
	remote := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	for name, base := range map[string]context.Context{
		"fresh":  context.Background(),
		"joined": ContextWithRemote(context.Background(), remote),
	} {
		ctx, root := StartSpan(base, "query")
		_, child := StartSpan(ctx, "encode")
		child.End()
		root.End()
		want := root.TraceID().String()
		if name == "joined" && want != remote.Trace.String() {
			t.Fatalf("joined root has trace %s, want the remote %s", want, remote.Trace)
		}
		if root.TraceIDString() != want || child.TraceIDString() != want || TraceIDFromContext(ctx) != want {
			t.Errorf("%s: ids %q / %q, want %q", name, root.TraceIDString(), child.TraceIDString(), want)
		}
	}
}
