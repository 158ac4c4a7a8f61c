package obs

import (
	"context"
	"strings"
	"sync"
	"time"
)

// Span times one named phase of work. Spans form a hierarchy: starting a
// span under a context that already carries one makes it a child, and its
// full name becomes "parent/child" — e.g. "build/sampling". Ending a span
// records its duration into the attached registry's
// expertfind_stage_seconds histogram, labelled by the full name, so every
// pipeline phase is scrapeable without bespoke per-phase metrics.
type Span struct {
	name  string
	start time.Time
	reg   *Registry

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
)

// WithRegistry attaches reg to ctx; spans started under it (and their
// descendants) record their durations there. A nil reg disables
// recording while keeping the timing behaviour.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey, reg)
}

// StartSpan begins a span named name under ctx and returns a derived
// context carrying it, so nested StartSpan calls become children. The
// clock starts immediately; call End (or EndIfOpen) exactly when the
// phase finishes.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now(), id: NewSpanID()}
	if parent, ok := ctx.Value(spanKey).(*Span); ok && parent != nil {
		s.name = parent.name + "/" + name
		s.reg = parent.reg
		s.traceID = parent.traceID
		s.parentID = parent.id
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	} else {
		if reg, ok := ctx.Value(registryKey).(*Registry); ok {
			s.reg = reg
		}
		// Root span: join a remote trace if the context carries one,
		// else mint a fresh trace id, and offer the root to any capture
		// installed by middleware.
		if tc, ok := RemoteFromContext(ctx); ok {
			s.traceID = tc.Trace
			s.parentID = tc.Span
		} else {
			s.traceID = NewTraceID()
		}
		if c, ok := ctx.Value(captureKey).(*TraceCapture); ok {
			c.offer(s)
		}
	}
	return context.WithValue(ctx, spanKey, s), s
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
	reg := s.reg
	s.mu.Unlock()
	if reg != nil {
		reg.Histogram("expertfind_stage_seconds",
			"Duration of pipeline stages, labelled by span path.",
			nil, L("stage", s.name)).Observe(d.Seconds())
	}
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

// Tree exports the span and its descendants (local children and grafted
// remote subtrees) as a SpanNode tree. Names are shortened to the last
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
		Name:          shortName(s.name),
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
func (s *Span) Name() string { return s.name }

// Start returns the span's start time.
func (s *Span) Start() time.Time { return s.start }
