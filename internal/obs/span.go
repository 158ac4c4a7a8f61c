package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span times one named phase of work. Spans form a hierarchy: starting a
// span under a context that already carries one makes it a child, and its
// full name becomes "parent/child" — e.g. "build/sampling". Ending a span
// records its duration into the attached registry's
// expertfind_stage_seconds histogram, labelled by the full name, so every
// pipeline phase is scrapeable without bespoke per-phase metrics.
//
// A span keeps its children for Tree only when something will read the
// tree: its root was started under WithSpanTree — as the serve envelope
// does for a request whose trace goes to a trace store or back to a
// collecting remote caller. Otherwise Tree exports the span alone, and
// starting a child costs no lock and no list.
//
// A span is also the context StartSpan returns: it wraps the context it
// was started under and answers for itself under the span key, so
// starting a span is one allocation, not a span and a context value.
type Span struct {
	context.Context // the context the span was started under

	stage *stage // the span path: full name and histogram
	start time.Time
	tree  bool // children are kept for Tree

	// Trace identity. Every span carries the trace id of the query it
	// belongs to and its own span id; parentID is the id of the span one
	// level up — possibly on another node, when the trace context arrived
	// over the wire.
	traceID  TraceID
	id       SpanID
	parentID SpanID

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
	attrs    map[string]string
	grafts   []SpanNode // remote subtrees adopted via Graft
}

type ctxKey int

const (
	spanKey ctxKey = iota
	registryKey
	remoteKey
	captureKey
	treeKey
)

// WithRegistry attaches reg to ctx; spans started under it (and their
// descendants) record their durations there. A nil reg disables
// recording while keeping the timing behaviour.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey, reg)
}

// WithSpanTree marks ctx as one whose root span's tree will be read: the
// next root span started under it, and its descendants, keep their child
// lists, so Tree exports every local descendant. Without the mark a span
// exports only itself and its grafts.
func WithSpanTree(ctx context.Context) context.Context {
	return context.WithValue(ctx, treeKey, true)
}

// stage is one span path: its full name, built once, and its
// expertfind_stage_seconds series, resolved at the first End. A path's
// child paths are looked up by short name in a map that is replaced, not
// changed, when a path is added, so the lookup of a known path takes no
// lock and allocates nothing.
type stage struct {
	name string
	reg  *Registry // nil: the span records nowhere
	hist atomic.Pointer[Histogram]
	kids atomic.Pointer[map[string]*stage]
	mu   sync.Mutex // serialises additions to kids
}

// unrecorded is the root of the span paths started without a registry.
var unrecorded stage

// child returns the path of a span named name started under st; the root
// of a registry's paths gives name itself.
func (st *stage) child(name string) *stage {
	if kids := st.kids.Load(); kids != nil {
		if c := (*kids)[name]; c != nil {
			return c
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.kids.Load()
	if old != nil {
		if c := (*old)[name]; c != nil {
			return c
		}
	}
	full := name
	if st.name != "" {
		full = st.name + "/" + name
	}
	kids := make(map[string]*stage, 1)
	if old != nil {
		for k, c := range *old {
			kids[k] = c
		}
	}
	c := &stage{name: full, reg: st.reg}
	kids[name] = c
	st.kids.Store(&kids)
	return c
}

// observe records one duration of the path, if it has a registry.
func (st *stage) observe(d time.Duration) {
	if st.reg == nil {
		return
	}
	h := st.hist.Load()
	if h == nil {
		h = st.reg.Histogram("expertfind_stage_seconds",
			"Duration of pipeline stages, labelled by span path.",
			nil, L("stage", st.name))
		st.hist.Store(h)
	}
	h.Observe(d.Seconds())
}

// StartSpan begins a span named name under ctx and returns a derived
// context carrying it, so nested StartSpan calls become children. The
// clock starts immediately; call End (or EndIfOpen) exactly when the
// phase finishes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{Context: ctx, start: time.Now(), id: NewSpanID()}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.stage = parent.stage.child(name)
		s.traceID = parent.traceID
		s.parentID = parent.id
		if parent.tree {
			s.tree = true
			parent.mu.Lock()
			parent.children = append(parent.children, s)
			parent.mu.Unlock()
		}
	} else {
		root := &unrecorded
		if reg, _ := ctx.Value(registryKey).(*Registry); reg != nil {
			root = &reg.stages
		}
		s.stage = root.child(name)
		s.tree = ctx.Value(treeKey) != nil
		// Root span: join a remote trace if the context carries one,
		// else mint a fresh trace id, and offer the root to any capture
		// installed by middleware.
		if tc, ok := RemoteFromContext(ctx); ok {
			s.traceID = tc.Trace
			s.parentID = tc.Span
		} else {
			s.traceID = NewTraceID()
		}
		if c := CaptureFromContext(ctx); c != nil {
			c.offer(s)
		}
	}
	return s, s
}

// Value answers the span itself for the span key and asks the context it
// was started under for every other key.
func (s *Span) Value(key any) any {
	if key == any(spanKey) {
		return s
	}
	return s.Context.Value(key)
}

// End stops the span's clock, records the duration into the registry
// (first call only; End is idempotent), and returns the duration.
func (s *Span) End() time.Duration {
	d, _ := s.end()
	return d
}

// EndIfOpen ends the span and reports whether this call did the ending —
// false means the span had already completed on its own. Abandonment
// paths (a hedge loser, a cancelled fan-out) use the distinction to mark
// only genuinely interrupted work, while a span that raced to completion
// keeps its own timing untouched.
func (s *Span) EndIfOpen() bool {
	_, endedNow := s.end()
	return endedNow
}

func (s *Span) end() (time.Duration, bool) {
	s.mu.Lock()
	if s.ended {
		d := s.dur
		s.mu.Unlock()
		return d, false
	}
	s.ended = true
	s.dur = time.Since(s.start)
	d := s.dur
	s.mu.Unlock()
	s.stage.observe(d)
	return d, true
}

// TraceID returns the id of the trace the span belongs to.
func (s *Span) TraceID() TraceID { return s.traceID }

// TraceIDString formats the trace id as 32 hex characters.
func (s *Span) TraceIDString() string { return s.traceID.String() }

// ID returns the span's own id.
func (s *Span) ID() SpanID { return s.id }

// Annotate attaches a key=value attribute to the span. Attributes carry
// per-instance detail (shard, replica, hedge, round) that must NOT go
// into the span name, which labels a bounded metric series. Safe after
// End: attributes describe the span, not its timing.
func (s *Span) Annotate(key, value string) {
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Graft adopts a remote subtree (a shard's exported spans) as a child of
// s, re-parenting its root onto s so the assembled tree reads as one
// trace. The subtree keeps its own span ids and timings.
func (s *Span) Graft(node SpanNode) {
	node.ParentID = s.id.String()
	s.mu.Lock()
	s.grafts = append(s.grafts, node)
	s.mu.Unlock()
}

// Tree exports the span and its descendants (local children, kept under
// WithSpanTree, and grafted remote subtrees) as a SpanNode tree. Names are shortened to the last
// path segment — the hierarchy is structural in the tree, so repeating
// the full "parent/child" path would be noise. Call after End for final
// durations; an open span exports its running time.
func (s *Span) Tree() SpanNode {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := make(map[string]string, len(s.attrs))
	for k, v := range s.attrs {
		attrs[k] = v
	}
	if len(attrs) == 0 {
		attrs = nil
	}
	children := append([]*Span(nil), s.children...)
	grafts := append([]SpanNode(nil), s.grafts...)
	s.mu.Unlock()

	n := SpanNode{
		Name:          shortName(s.stage.name),
		SpanID:        s.id.String(),
		StartUnixNano: s.start.UnixNano(),
		DurationNano:  int64(dur),
		Attrs:         attrs,
	}
	if !s.parentID.IsZero() {
		n.ParentID = s.parentID.String()
	}
	for _, c := range children {
		n.Children = append(n.Children, c.Tree())
	}
	n.Children = append(n.Children, grafts...)
	return n
}

// shortName returns the last segment of a "parent/child" span path.
func shortName(name string) string { return name[strings.LastIndexByte(name, '/')+1:] }

// Name returns the span's full hierarchical name.
func (s *Span) Name() string { return s.stage.name }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }
