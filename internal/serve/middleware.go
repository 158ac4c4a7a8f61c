package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/obs"
)

// Envelope is the HTTP shell every node serves its routes through — the
// single-node/shard Server here and the cluster Router: request ids, the
// access log line, per-route metrics, trace capture and retention, the
// slow-query log, and the response helpers. It is plain data, so the two
// servers differ only in the values they put in it, and a fix to the
// shell reaches both.
type Envelope struct {
	// Metrics is the owner's registry with the handles the envelope
	// records through, created once with the owner (NewEnvelopeMetrics).
	Metrics *EnvelopeMetrics
	Log     *obs.Logger
	// Traces retains captured query span trees and backs /debug/traces;
	// nil disables retention.
	Traces *obs.TraceStore
	// SlowQuery, when positive, is the slow-query log threshold.
	SlowQuery time.Duration
	// Routes holds the request paths that get a route metric label of
	// their own (the path). A key ending in "/" gives the whole subtree
	// below it the key's label, minus the slash. Every other path is
	// folded into "other", so a path-scanning client cannot grow the
	// registry without bound.
	Routes map[string]bool
	// Traced holds the route labels whose root spans feed the trace
	// store: the query-serving paths. Health, metrics and debug
	// endpoints stay untraced.
	Traced map[string]bool
}

// EnvelopeMetrics is the registry an envelope records into and the
// handles of its fixed series. The server or router that owns the
// registry creates it once, so these families are listed before the
// first request.
type EnvelopeMetrics struct {
	Reg                                           *obs.Registry
	inFlight                                      *obs.Gauge
	timeouts, slow, encodeFailures, tracesDropped *obs.Counter
	tracesKept                                    map[string]*obs.Counter // by keep rule
}

// NewEnvelopeMetrics creates the envelope's families in reg.
func NewEnvelopeMetrics(reg *obs.Registry) *EnvelopeMetrics {
	m := &EnvelopeMetrics{Reg: reg,
		inFlight:       reg.Gauge("expertfind_http_in_flight", "Requests currently being served."),
		timeouts:       reg.Counter("expertfind_http_timeouts_total", "Query requests that exceeded their deadline."),
		slow:           reg.Counter("expertfind_slow_queries_total", "Queries slower than the slow-query log threshold."),
		encodeFailures: reg.Counter("expertfind_http_encode_failures_total", "Responses dropped because JSON encoding failed."),
		tracesDropped:  reg.Counter("expertfind_traces_dropped_total", "Traces offered to the trace store but kept by no rule."),
		tracesKept:     map[string]*obs.Counter{},
	}
	for _, rule := range []string{obs.KeepError, obs.KeepHedged, obs.KeepSlow, obs.KeepSampled} {
		m.tracesKept[rule] = reg.Counter("expertfind_traces_kept_total",
			"Traces retained by the trace store, by keep rule.", obs.L("reason", rule))
	}
	return m
}

// serverRoutes is the Server's route table, the /shard/papers route the
// cluster layer mounts on it included.
var serverRoutes = map[string]bool{
	"/experts":       true,
	"/papers":        true,
	"/similar":       true,
	"/add":           true,
	"/healthz":       true,
	"/readyz":        true,
	"/metrics":       true,
	"/debug/vars":    true,
	"/debug/traces":  true,
	"/debug/traces/": true,
	"/debug/pprof/":  true,
	"/shard/papers":  true,
}

// serverTraced are the Server's traced routes, public and internal.
var serverTraced = map[string]bool{
	"/experts":      true,
	"/papers":       true,
	"/similar":      true,
	"/shard/papers": true,
}

// envelope assembles the Server's shell from its current settings.
func (s *Server) envelope() Envelope {
	return Envelope{Metrics: s.metrics, Log: s.Log, Traces: s.Traces, SlowQuery: s.SlowQuery,
		Routes: serverRoutes, Traced: serverTraced}
}

func routeLabel(routes map[string]bool, path string) string {
	if routes[path] {
		return strings.TrimSuffix(path, "/")
	}
	for i := strings.LastIndexByte(path, '/'); i > 0; i = strings.LastIndexByte(path[:i], '/') {
		if routes[path[:i+1]] {
			return path[:i]
		}
	}
	return "other"
}

// statusWriter captures the response code and body size for metrics and
// the access log. Embedding hides what else the connection's writer can
// do, so the two things handlers use are handed back: Unwrap lets a
// ResponseController flush (the WAL tail), ReadFrom keeps io.Copy on the
// writer's own ReaderFrom (the snapshot download).
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := io.Copy(w.ResponseWriter, src)
	w.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler: the envelope around the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.envelope().Serve(w, r, s.mux)
}

// Serve runs next inside the envelope, answering the envelope's own
// routes (/metrics, /debug/vars, /debug/traces[/{id}], where Routes
// lists them) itself. Each request gets a request ID
// (honouring an incoming X-Request-ID so ids propagate across services;
// handlers can read it back from the response header), an access-log
// line, and per-route metrics. Traced routes additionally run under a
// trace-aware context: an incoming X-Trace-Context joins the request to
// its originating distributed trace, and the handler's root span is
// captured here — rather than wrapped in a middleware span, which would
// rename every stage metric series — for trace retention, exemplars and
// the slow-query log.
func (e Envelope) Serve(w http.ResponseWriter, r *http.Request, next http.Handler) {
	start := time.Now()
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	route := routeLabel(e.Routes, r.URL.Path)

	reg := e.Metrics.Reg
	ctx := obs.WithRegistry(r.Context(), reg)
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
		ctx = obs.ContextWithRemote(ctx, tc)
	}
	var capture *obs.TraceCapture
	if e.Traced[route] {
		ctx, capture = obs.WithTraceCapture(ctx)
	}
	r = r.WithContext(ctx)

	e.Metrics.inFlight.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	switch route {
	case "/metrics":
		e.serveMetrics(sw, r)
	case "/debug/vars":
		// A JSON snapshot of every metric, histograms summarised as
		// count/sum/p50/p90/p99 — a human-readable mirror of /metrics.
		e.WriteJSON(sw, http.StatusOK, reg.Snapshot())
	case "/debug/traces":
		e.serveTraces(sw, r)
	default:
		next.ServeHTTP(sw, r)
	}
	e.Metrics.inFlight.Add(-1)

	if sw.code == 0 { // handler wrote nothing at all
		sw.code = http.StatusOK
	}
	dur := time.Since(start)
	durMs := float64(dur.Microseconds()) / 1000
	traceID := e.finishTrace(capture, r, route, sw.code, durMs)
	// Labels in key order: a sorted lookup is answered without a copy.
	reg.Counter("expertfind_http_requests_total", "HTTP requests by route and status code.",
		obs.L("code", strconv.Itoa(sw.code)), obs.L("route", route)).Inc()
	reg.Histogram("expertfind_http_request_seconds", "HTTP request latency by route.",
		nil, obs.L("route", route)).ObserveWithExemplar(dur.Seconds(), traceID)
	if e.Log.Enabled(obs.LevelInfo) { // a silenced logger should not cost 14 boxed arguments
		e.Log.Info("access", "req_id", reqID, "method", r.Method, "path", r.URL.Path,
			"route", route, "status", sw.code, "bytes", sw.bytes, "dur_ms", durMs)
	}
}

// finishTrace runs the envelope's tail work for one request: offer the
// captured root to the trace store under the tail-based keep rules, and
// emit the slow-query log line. Returns the trace id ("" when the
// request produced no span — e.g. a cache hit).
func (e Envelope) finishTrace(capture *obs.TraceCapture, r *http.Request, route string,
	status int, durMs float64) string {
	if capture == nil {
		return ""
	}
	root := capture.Root()
	if root == nil {
		return ""
	}
	traceID := root.TraceIDString()
	slow := e.SlowQuery > 0 && durMs >= e.SlowQuery.Seconds()*1000
	if e.Traces == nil && !slow {
		return traceID
	}
	q := r.URL.Query().Get("q") // parsed here at most once, and only when a record needs it
	if e.Traces != nil {
		tree := root.Tree()
		rule, kept := e.Traces.Add(obs.TraceRecord{
			TraceID:    traceID,
			Route:      route,
			Query:      q,
			Status:     status,
			Start:      root.Start(),
			DurationMs: durMs,
			Root:       tree,
		}, obs.KeepFlags{
			Error:  status >= 500,
			Hedged: tree.HasAttr("hedge"),
		})
		if kept {
			e.Metrics.tracesKept[rule].Inc()
		} else {
			e.Metrics.tracesDropped.Inc()
		}
	}
	if slow {
		e.Metrics.slow.Inc()
		e.Log.Warn("slow_query", "trace_id", traceID, "route", route, "q", q,
			"status", status, "dur_ms", durMs)
	}
	return traceID
}

// serveMetrics serves the registry in the Prometheus text exposition
// format; scrapers that negotiate OpenMetrics via Accept additionally
// get histogram exemplars, which the classic 0.0.4 parser rejects.
func (e Envelope) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.AcceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.ContentTypeOpenMetrics)
		e.Metrics.Reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentTypeText)
	e.Metrics.Reg.WritePrometheus(w)
}

// serveTraces answers both /debug/traces (index) and /debug/traces/{id}
// (full span trees) from the trace store.
func (e Envelope) serveTraces(w http.ResponseWriter, r *http.Request) {
	if e.Traces == nil {
		http.Error(w, "trace store disabled (enable with -trace-capacity)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces")
	id = strings.Trim(id, "/")
	if id == "" {
		idx := e.Traces.Index()
		e.WriteJSON(w, http.StatusOK, TraceIndexResponse{Count: len(idx), Traces: idx})
		return
	}
	recs := e.Traces.Get(id)
	if len(recs) == 0 {
		http.Error(w, "trace not found (evicted, dropped by keep rules, or never sampled)",
			http.StatusNotFound)
		return
	}
	e.WriteJSON(w, http.StatusOK, TraceResponse{TraceID: id, Records: recs})
}

// jsonBufs recycles WriteJSON's encode buffers; one that grew past
// maxPooledJSON is dropped, so a single /debug/vars or /papers?m=5000
// cannot pin its size for the life of the process.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledJSON = 64 << 10

// WriteJSON is the only JSON body writer of the server and the router, for
// every status: compact encoding/json output and the encoder's newline
// (indenting cost more than encoding the query; `| jq .` pretty-prints).
// It encodes into a buffer first, so an encoding failure can still produce
// a clean 500 — writing through the encoder would have committed the
// header and part of the body — and so the length is known: a body over
// net/http's 2 KB sniff window goes out with Content-Length, not chunked.
func (e Envelope) WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledJSON {
			buf.Reset()
			jsonBufs.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		e.Metrics.encodeFailures.Inc()
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

// WriteQueryError maps a query error onto an HTTP status: 400 for bad
// parameters, 504 for an expired deadline (counted), 499 for a client
// that went away, 500 otherwise. Returns true when it wrote a response.
func (e Envelope) WriteQueryError(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	var bad *core.BadParamError
	switch {
	case errors.As(err, &bad):
		http.Error(w, bad.Error(), http.StatusBadRequest)
	case errors.Is(err, context.DeadlineExceeded):
		e.Metrics.timeouts.Inc()
		http.Error(w, "query deadline exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "client closed request", statusClientClosedRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return true
}

// QueryContext derives a query handler's context: the request's own (so
// client disconnects cancel server work) bounded by timeout when positive.
func QueryContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), timeout)
}

// IntParam reads a positive integer query parameter bounded by max, or
// def when the request omits it. It takes the parsed query: r.URL.Query()
// parses the string anew on every call, so a handler calls it once.
func IntParam(params url.Values, name string, def, max int) (int, error) {
	raw := params.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 1 {
		return 0, fmt.Errorf("parameter %s must be a positive integer", name)
	}
	if v > max {
		return 0, fmt.Errorf("parameter %s exceeds the maximum %d", name, max)
	}
	return v, nil
}

// Truncate shortens s to at most n runes plus an ellipsis. Slicing at a
// byte offset would split multi-byte UTF-8 sequences in non-ASCII titles.
func Truncate(s string, n int) string {
	seen := 0
	for i := range s {
		if seen == n {
			return s[:i] + "..."
		}
		seen++
	}
	return s
}

// EnablePprof mounts the net/http/pprof profiling handlers under
// /debug/pprof/. Off by default: profiling endpoints can stall the
// process (CPU profiles block for their duration) and belong behind an
// operator flag.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
