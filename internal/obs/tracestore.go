package obs

import (
	"sync"
	"time"
)

// TracePolicy configures a TraceStore's retention. Tail-based: the keep
// decision is made after the request finishes, when its duration, status
// and shape (hedged?) are known — the interesting traces are
// exactly the ones head-based sampling would have skipped.
type TracePolicy struct {
	// Capacity is the ring size; the oldest kept trace is evicted when a
	// new one arrives at capacity. 0 selects 512.
	Capacity int
	// SlowestN keeps any trace slower than all but N of the traces
	// currently retained — a self-adjusting latency floor. The rule arms
	// only once the ring holds at least SlowestN records; before that,
	// ordinary traces fall through to the sampling rule. 0 selects 32;
	// negative disables the rule.
	SlowestN int
	// SampleEvery keeps 1 in SampleEvery of the traces no other rule
	// claims, so the store always holds a baseline of ordinary queries
	// to compare outliers against. 0 selects 64; negative disables.
	SampleEvery int
}

func (p TracePolicy) withDefaults() TracePolicy {
	if p.Capacity == 0 {
		p.Capacity = 512
	}
	if p.SlowestN == 0 {
		p.SlowestN = 32
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = 64
	}
	return p
}

// KeepFlags are the shape signals the caller knows at end of request.
type KeepFlags struct {
	// Error: the request failed (5xx or transport-level).
	Error bool
	// Hedged: at least one hedged attempt fired.
	Hedged bool
}

// Keep reasons, in decision precedence order.
const (
	KeepError   = "error"
	KeepHedged  = "hedged"
	KeepSlow    = "slow"
	KeepSampled = "sampled"
)

// TraceRecord is one retained trace: identity, request framing, and the
// assembled span tree.
type TraceRecord struct {
	TraceID    string    `json:"trace_id"`
	Route      string    `json:"route"`
	Query      string    `json:"query,omitempty"`
	Status     int       `json:"status"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	// Kept records which rule retained the trace.
	Kept string   `json:"kept"`
	Root SpanNode `json:"root"`
}

// TraceSummary is the index view of a record — everything but the tree.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Route      string    `json:"route"`
	Query      string    `json:"query,omitempty"`
	Status     int       `json:"status"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Kept       string    `json:"kept"`
}

// TraceStore retains completed traces in a fixed-size ring under
// tail-based keep rules. All methods are safe for concurrent use.
type TraceStore struct {
	policy TracePolicy

	mu      sync.Mutex
	ring    []TraceRecord // kept records, oldest overwritten first
	next    int           // ring write cursor
	full    bool          // ring has wrapped
	offered uint64        // total records offered, drives sampling

	kept    map[string]*Counter // per-reason kept counters (nil without a registry)
	dropped *Counter
}

// NewTraceStore returns a store with the given policy. reg, when
// non-nil, receives expertfind_traces_kept_total{reason=...} and
// expertfind_traces_dropped_total counters.
func NewTraceStore(policy TracePolicy, reg *Registry) *TraceStore {
	p := policy.withDefaults()
	s := &TraceStore{
		policy: p,
		ring:   make([]TraceRecord, 0, p.Capacity),
	}
	if reg != nil {
		s.kept = make(map[string]*Counter, 4)
		for _, reason := range []string{KeepError, KeepHedged, KeepSlow, KeepSampled} {
			s.kept[reason] = reg.Counter("expertfind_traces_kept_total",
				"Traces retained by the trace store, by keep rule.", L("reason", reason))
		}
		s.dropped = reg.Counter("expertfind_traces_dropped_total",
			"Traces offered to the trace store but kept by no rule.")
	}
	return s
}

// Add offers a finished trace to the store. flags supply the shape
// signals; rec.Kept is overwritten with the winning rule. Returns the
// keep reason and whether the record was retained.
func (s *TraceStore) Add(rec TraceRecord, flags KeepFlags) (string, bool) {
	s.mu.Lock()
	s.offered++
	reason := s.decide(rec, flags)
	if reason == "" {
		s.mu.Unlock()
		if s.dropped != nil {
			s.dropped.Inc()
		}
		return "", false
	}
	rec.Kept = reason
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, rec)
	} else {
		s.ring[s.next] = rec
		s.next = (s.next + 1) % cap(s.ring)
		s.full = true
	}
	c := s.kept[reason]
	s.mu.Unlock()
	if c != nil {
		c.Inc()
	}
	return reason, true
}

// decide applies the keep rules in precedence order. Caller holds s.mu.
func (s *TraceStore) decide(rec TraceRecord, flags KeepFlags) string {
	switch {
	case flags.Error:
		return KeepError
	case flags.Hedged:
		return KeepHedged
	}
	if s.policy.SlowestN > 0 && s.isSlow(rec.DurationMs) {
		return KeepSlow
	}
	if s.policy.SampleEvery > 0 && (s.offered-1)%uint64(s.policy.SampleEvery) == 0 {
		return KeepSampled
	}
	return ""
}

// isSlow reports whether durationMs ranks within the SlowestN slowest of
// the currently retained records — a threshold that tracks the live
// latency distribution instead of a fixed cutoff. The rule arms only
// once the ring holds at least SlowestN records: before that every
// trace would trivially rank in the top N, mislabelling ordinary
// cold-start traffic as "slow" (it falls through to the sampling rule
// instead). Caller holds s.mu.
func (s *TraceStore) isSlow(durationMs float64) bool {
	if len(s.ring) < s.policy.SlowestN {
		return false
	}
	slower := 0
	for i := range s.ring {
		if s.ring[i].DurationMs > durationMs {
			slower++
			if slower >= s.policy.SlowestN {
				return false
			}
		}
	}
	return true
}

// Get returns every retained record for a trace id, oldest first. A
// shard node legitimately holds several records per trace (one per RPC
// it served), so the result is a slice.
func (s *TraceStore) Get(traceID string) []TraceRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TraceRecord
	for _, rec := range s.inOrder() {
		if rec.TraceID == traceID {
			out = append(out, rec)
		}
	}
	return out
}

// Index returns summaries of every retained trace, newest first.
func (s *TraceStore) Index() []TraceSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.inOrder()
	out := make([]TraceSummary, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		out = append(out, TraceSummary{
			TraceID:    r.TraceID,
			Route:      r.Route,
			Query:      r.Query,
			Status:     r.Status,
			Start:      r.Start,
			DurationMs: r.DurationMs,
			Kept:       r.Kept,
		})
	}
	return out
}

// Len returns the number of retained traces.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ring)
}

// inOrder returns the ring's records oldest first. Caller holds s.mu.
func (s *TraceStore) inOrder() []TraceRecord {
	if !s.full {
		return s.ring
	}
	out := make([]TraceRecord, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}
