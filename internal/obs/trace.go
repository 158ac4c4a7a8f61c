package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Cross-node trace propagation. A trace is one logical query; its spans
// may live in several processes (router, shards, replicas). The trace
// context — a 16-byte trace id naming the whole query plus the 8-byte id
// of the span that issued the outbound request — crosses process
// boundaries in the TraceHeader, traceparent-style, so a shard's spans
// join the router's trace instead of starting their own.

// TraceHeader carries the trace context on inter-node requests:
//
//	X-Trace-Context: 00-<32 hex trace id>-<16 hex span id>-01
//
// The leading "00" is a format version, the trailing "01" a sampled
// flag, mirroring the W3C traceparent layout so the value is readable by
// standard tooling.
const TraceHeader = "X-Trace-Context"

// CollectHeader asks the receiving node to return its completed span
// tree in the response envelope ("1" enables). The router sets it only
// when it has a trace store to graft the result into, so shards do not
// pay the export and wire cost for untraced deployments.
const CollectHeader = "X-Trace-Collect"

// TraceID names one distributed query across every node it touches.
type TraceID [16]byte

// SpanID names one span within a trace.
type SpanID [8]byte

// IsZero reports an unset trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports an unset span id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes 32 hex characters.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 2*len(t) {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// ParseSpanID decodes 16 hex characters.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 2*len(id) {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return SpanID{}, false
	}
	return id, !id.IsZero()
}

// id generation: a locked math/rand source seeded from crypto/rand once.
// Span creation sits on the query path, so ids must not pay a syscall
// each; one PRNG draw under a mutex is a few tens of nanoseconds.
var (
	idMu  sync.Mutex
	idRng = rand.New(rand.NewSource(randSeed()))
)

func randSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// NewTraceID returns a random non-zero trace id.
func NewTraceID() TraceID {
	var t TraceID
	idMu.Lock()
	for t.IsZero() {
		idRng.Read(t[:])
	}
	idMu.Unlock()
	return t
}

// NewSpanID returns a random non-zero span id.
func NewSpanID() SpanID {
	var s SpanID
	idMu.Lock()
	for s.IsZero() {
		idRng.Read(s[:])
	}
	idMu.Unlock()
	return s
}

// reqCounter backs the request-id fallback when crypto/rand fails.
var reqCounter atomic.Uint64

// NewRequestID returns a 16-hex-character id for correlating one
// request's log lines, response header and traces.
func NewRequestID() string {
	var buf [8]byte
	if _, err := crand.Read(buf[:]); err != nil {
		return fmt.Sprintf("req-%016x", reqCounter.Add(1))
	}
	return hex.EncodeToString(buf[:])
}

// TraceContext is the wire-portable part of a trace: which trace the
// request belongs to and which remote span is its parent.
type TraceContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports a usable context (non-zero trace id).
func (tc TraceContext) Valid() bool { return !tc.Trace.IsZero() }

// FormatTraceContext renders tc as the TraceHeader value.
func FormatTraceContext(tc TraceContext) string {
	return "00-" + tc.Trace.String() + "-" + tc.Span.String() + "-01"
}

// ParseTraceContext decodes a TraceHeader value. Unknown versions and
// malformed fields are rejected rather than guessed at.
func ParseTraceContext(s string) (TraceContext, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 || parts[0] != "00" {
		return TraceContext{}, false
	}
	t, ok := ParseTraceID(parts[1])
	if !ok {
		return TraceContext{}, false
	}
	id, ok := ParseSpanID(parts[2])
	if !ok {
		return TraceContext{}, false
	}
	return TraceContext{Trace: t, Span: id}, true
}

// ContextWithRemote attaches an extracted remote trace context to ctx:
// the next root span started under it joins that trace as a child of the
// remote span instead of minting a fresh trace id.
func ContextWithRemote(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, remoteKey, tc)
}

// RemoteFromContext returns the remote trace context attached to ctx.
func RemoteFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(remoteKey).(TraceContext)
	return tc, ok && tc.Valid()
}

// SpanFromContext returns the current span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// headerSetter is the subset of http.Header the injector needs, kept as
// an interface so obs stays free of net/http.
type headerSetter interface{ Set(key, value string) }

// InjectTrace writes the current trace context into h (typically an
// http.Header) for an outbound request: the active span's coordinates
// when ctx carries one, else any remote context being relayed. Returns
// whether a header was written.
func InjectTrace(ctx context.Context, h headerSetter) bool {
	if s := SpanFromContext(ctx); s != nil {
		h.Set(TraceHeader, FormatTraceContext(TraceContext{Trace: s.TraceID(), Span: s.ID()}))
		return true
	}
	if tc, ok := RemoteFromContext(ctx); ok {
		h.Set(TraceHeader, FormatTraceContext(tc))
		return true
	}
	return false
}

// TraceIDFromContext resolves the trace id visible from ctx: the current
// span's, else a captured root's, else a remote context's; "" when ctx
// carries no trace at all (e.g. a cache hit that started no span).
func TraceIDFromContext(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.TraceIDString()
	}
	if c, ok := ctx.Value(captureKey).(*TraceCapture); ok {
		if root := c.Root(); root != nil {
			return root.TraceIDString()
		}
	}
	if tc, ok := RemoteFromContext(ctx); ok {
		return tc.Trace.String()
	}
	return ""
}

// SpanNode is the serialisable form of a completed span subtree — what
// shards return in their response envelopes and what /debug/traces
// serves. Times are wall-clock nanoseconds so trees assembled across
// nodes order correctly (modulo clock skew, which per-node durations do
// not suffer from).
type SpanNode struct {
	Name     string `json:"name"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// StartUnixNano is the span's start in wall-clock nanoseconds.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNano is the span's measured duration (monotonic clock).
	DurationNano int64             `json:"duration_nano"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Children     []SpanNode        `json:"children,omitempty"`
}

// HasAttr reports whether the node or any descendant carries attr key —
// how the keep rules spot hedges in assembled trees.
func (n SpanNode) HasAttr(key string) bool {
	if _, ok := n.Attrs[key]; ok {
		return true
	}
	for _, c := range n.Children {
		if c.HasAttr(key) {
			return true
		}
	}
	return false
}

// TraceCapture receives the root span of work done under a context — how
// the serve middleware gets hold of the span tree the engine builds and
// ends internally, without wrapping queries in an extra span (which
// would rename every stage metric).
type TraceCapture struct {
	mu   sync.Mutex
	root *Span
}

// WithTraceCapture derives a context whose first root span is recorded
// into the returned capture.
func WithTraceCapture(ctx context.Context) (context.Context, *TraceCapture) {
	c := &TraceCapture{}
	return context.WithValue(ctx, captureKey, c), c
}

// Root returns the captured root span, or nil if none started.
func (c *TraceCapture) Root() *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root
}

func (c *TraceCapture) offer(s *Span) {
	c.mu.Lock()
	if c.root == nil {
		c.root = s
	}
	c.mu.Unlock()
}
