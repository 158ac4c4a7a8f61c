package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans of
// one operation share Op; Parent is the ID of the span that caused this
// one, or -1. Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing: end-to-end metrics are measured that
// way, and only the traced run pays for spans.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), on: true} }

func (r *recorder) enabled() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

func (r *recorder) setEnabled(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// start opens a span and returns its ID, or -1 when recording is off.
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return time.Duration(now - r.spans[id].Start)
}

// timed runs fn inside a span and returns fn's wall time whether or not
// the recorder is on, so callers time a stage once.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	id := r.start(name, parent, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// spanTotals is the per-name summary written next to the spans.
type spanTotals struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is duration minus the part of the interval child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// totals sums duration and self time per span name over closed spans.
func (r *recorder) totals() map[string]spanTotals {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]spanTotals)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		t := out[s.Name]
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(s.End-s.Start-covered(children[s.ID], s.Start, s.End)) / 1e6
		out[s.Name] = t
	}
	return out
}

// covered returns how much of [lo, hi] the union of the spans covers.
func covered(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum int64
	at := lo
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < at {
			a = at
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += b - a
			at = b
		}
	}
	return sum
}

// write dumps the spans and their per-name totals as JSON.
func (r *recorder) write(path string) error {
	totals := r.totals()
	r.mu.Lock()
	doc := struct {
		Totals map[string]spanTotals `json:"totals"`
		Spans  []span                `json:"spans"`
	}{totals, r.spans}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
