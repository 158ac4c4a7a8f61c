package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "route", Value: "/experts"}.
// Keep label sets small and bounded: every distinct combination creates a
// new time series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// atomicFloat is a float64 updated with compare-and-swap, so counters and
// histogram sums stay exact under concurrent Add without a mutex.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value.
type Counter struct{ v atomicFloat }

// Add increases the counter by v (v must be non-negative).
func (c *Counter) Add(v float64) { c.v.Add(v) }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomicFloat }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add moves the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the tail. Observations
// are lock-free.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Uint64

	// exemplar is the most recent traced observation, rendered
	// OpenMetrics-style on its bucket line so dashboards can jump from a
	// latency series to the trace that exhibited it. Nil until an
	// observation arrives with a trace id.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation to the trace that produced
// it.
type Exemplar struct {
	TraceID string
	Value   float64
	bucket  int
}

// DefBuckets spans 100µs to 10s, the useful range for both per-request
// latencies and offline build phases.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveWithExemplar(v, "") }

// ObserveWithExemplar records one value and, when traceID is non-empty,
// remembers it as the histogram's exemplar (last writer wins — recency
// is the useful property for "show me a trace like this").
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	if traceID != "" && traceID != zeroTraceID {
		h.exemplar.Store(&Exemplar{TraceID: traceID, Value: v, bucket: i})
	}
}

// zeroTraceID is the string form of an unset TraceID, which names no
// trace and must not become an exemplar.
const zeroTraceID = "00000000000000000000000000000000"

// LastExemplar returns the histogram's current exemplar, or nil.
func (h *Histogram) LastExemplar() *Exemplar {
	return h.exemplar.Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding the target rank. Observations in the +Inf
// bucket clamp to the largest finite bound. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= target && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.upper[i-1]
			}
			if i == len(h.upper) { // +Inf bucket: clamp
				return h.upper[len(h.upper)-1]
			}
			frac := (target - cum) / n
			return lo + frac*(h.upper[i]-lo)
		}
		cum += n
	}
	return h.upper[len(h.upper)-1]
}

type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (metric name, label set) time series.
type series struct {
	c *Counter
	g *Gauge
	h *Histogram
}

// family groups the series sharing a metric name.
type family struct {
	name, help string
	kind       kind
	buckets    []float64
	series     map[string]*series // keyed by rendered label signature
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// handles returned by Counter/Gauge/Histogram are themselves lock-free
// and may be cached by callers.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// appendLabelKey renders labels, already in key order, as the series'
// signature — the map key of a lookup and the label text of the
// exposition.
func appendLabelKey(dst []byte, labels []Label) []byte {
	for i, l := range labels {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, `="`...)
		dst = append(dst, escapeLabel(l.Value)...)
		dst = append(dst, '"')
	}
	return dst
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value for the exposition format. It runs on
// every labelled metric lookup, and almost no value needs escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// getSeries returns (creating as needed) the series for name+labels,
// checking that the metric kind is consistent with prior registrations.
// Labels name the same series in any order. Finding an existing one —
// every Span.End, every envelope counter — allocates nothing when they
// arrive in key order (none, one, or a sorted set): no copy, the signature
// built on the stack; a series keeps that string, never the caller's slice.
func (r *Registry) getSeries(name, help string, k kind, buckets []float64, labels []Label) *series {
	byKey := func(a, b Label) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(labels, byKey) {
		labels = slices.Clone(labels)
		slices.SortFunc(labels, byKey)
	}
	var scratch [128]byte
	key := appendLabelKey(scratch[:0], labels)

	r.mu.RLock()
	f := r.families[name]
	var s *series
	if f != nil {
		s = f.series[string(key)]
	}
	r.mu.RUnlock()
	if s != nil {
		if f.kind != k {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
		}
		return s
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, k))
	}
	if s = f.series[string(key)]; s != nil {
		return s
	}
	s = &series{}
	switch k {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	case histogramKind:
		b := f.buckets
		if len(b) == 0 {
			b = DefBuckets
		}
		s.h = &Histogram{upper: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	f.series[string(key)] = s
	return s
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getSeries(name, help, counterKind, nil, labels).c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getSeries(name, help, gaugeKind, nil, labels).g
}

// Histogram returns the histogram for name+labels, creating it on first
// use. buckets applies only on the first registration of the family; nil
// selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.getSeries(name, help, histogramKind, buckets, labels).h
}

// fmtFloat renders a sample value the way Prometheus expects.
func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Content types for the two exposition formats /metrics can serve.
const (
	// ContentTypeText is the classic Prometheus text format. Its parser
	// expects an optional integer timestamp after each value and errors
	// on anything else, so output in this format must not carry
	// exemplars.
	ContentTypeText = "text/plain; version=0.0.4; charset=utf-8"
	// ContentTypeOpenMetrics is the OpenMetrics 1.0 text format, the
	// only exposition format whose parsers accept exemplars.
	ContentTypeOpenMetrics = "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

// AcceptsOpenMetrics reports whether an Accept header negotiates the
// OpenMetrics exposition format. Metrics handlers use it to decide
// between WritePrometheus (safe for every scraper) and WriteOpenMetrics
// (exemplars included).
func AcceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		if strings.EqualFold(mt, "application/openmetrics-text") {
			return true
		}
	}
	return false
}

// WritePrometheus renders every family in the classic text exposition
// format (version 0.0.4), families and series in lexicographic order so
// output is deterministic and diffable. Exemplars are never emitted:
// the 0.0.4 parser rejects them, which would fail the whole scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders every family in the OpenMetrics 1.0 text
// format: histogram exemplars included, counter families declared under
// their un-suffixed name, and the mandatory # EOF terminator. Serve it
// only to scrapers that negotiated ContentTypeOpenMetrics via Accept.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	return r.writeExposition(w, true)
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)

	type snap struct {
		fam  *family
		keys []string
	}
	snaps := make([]snap, 0, len(names))
	for _, n := range names {
		f := r.families[n]
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		snaps = append(snaps, snap{f, keys})
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, sn := range snaps {
		f := sn.fam
		// OpenMetrics declares counter families under the un-suffixed
		// name (samples keep the _total suffix); a counter whose name
		// lacks the suffix cannot be declared as such and degrades to
		// the unknown type.
		famName, famKind := f.name, f.kind.String()
		if openMetrics && f.kind == counterKind {
			if strings.HasSuffix(famName, "_total") {
				famName = strings.TrimSuffix(famName, "_total")
			} else {
				famKind = "unknown"
			}
		}
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", famName, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", famName, famKind)
		for _, key := range sn.keys {
			s := f.series[key]
			switch f.kind {
			case counterKind:
				writeSample(&b, f.name, key, "", s.c.Value())
			case gaugeKind:
				writeSample(&b, f.name, key, "", s.g.Value())
			case histogramKind:
				h := s.h
				var ex *Exemplar
				if openMetrics {
					ex = h.exemplar.Load()
				}
				var cum uint64
				for i, ub := range h.upper {
					cum += h.counts[i].Load()
					writeSampleExemplar(&b, f.name+"_bucket", key,
						`le="`+fmtFloat(ub)+`"`, float64(cum), exemplarFor(ex, i))
				}
				cum += h.counts[len(h.upper)].Load()
				writeSampleExemplar(&b, f.name+"_bucket", key, `le="+Inf"`, float64(cum),
					exemplarFor(ex, len(h.upper)))
				writeSample(&b, f.name+"_sum", key, "", h.Sum())
				writeSample(&b, f.name+"_count", key, "", float64(h.Count()))
			}
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels, extra string, v float64) {
	writeSampleExemplar(b, name, labels, extra, v, nil)
}

// exemplarFor returns ex only when it lands in bucket i, so the exemplar
// suffix appears on exactly one bucket line.
func exemplarFor(ex *Exemplar, i int) *Exemplar {
	if ex != nil && ex.bucket == i {
		return ex
	}
	return nil
}

func writeSampleExemplar(b *strings.Builder, name, labels, extra string, v float64, ex *Exemplar) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(fmtFloat(v))
	if ex != nil {
		// OpenMetrics exemplar syntax. Callers pass a non-nil ex only in
		// OpenMetrics mode: the 0.0.4 parser errors on the # suffix.
		b.WriteString(` # {trace_id="`)
		b.WriteString(ex.TraceID)
		b.WriteString(`"} `)
		b.WriteString(fmtFloat(ex.Value))
	}
	b.WriteByte('\n')
}

// HistogramSummary is the /debug/vars view of one histogram series.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	// ExemplarTraceID is the trace behind the most recent traced
	// observation, when the histogram has one.
	ExemplarTraceID string `json:"exemplar_trace_id,omitempty"`
}

// Summary returns the count/sum and estimated p50/p90/p99 of h.
func (h *Histogram) Summary() HistogramSummary {
	s := HistogramSummary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if ex := h.exemplar.Load(); ex != nil {
		s.ExemplarTraceID = ex.TraceID
	}
	return s
}

// Snapshot returns every series keyed by "name{labels}": float64 for
// counters and gauges, HistogramSummary for histograms. It backs the
// /debug/vars JSON endpoint.
func (r *Registry) Snapshot() map[string]interface{} {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]interface{})
	for name, f := range r.families {
		for key, s := range f.series {
			id := name
			if key != "" {
				id = name + "{" + key + "}"
			}
			switch f.kind {
			case counterKind:
				out[id] = s.c.Value()
			case gaugeKind:
				out[id] = s.g.Value()
			case histogramKind:
				out[id] = s.h.Summary()
			}
		}
	}
	return out
}
