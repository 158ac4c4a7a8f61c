// Package serve exposes a built expert-finding engine over HTTP: the
// online stage of the paper (§IV) as a long-lived service. The handlers
// are safe for concurrent use, POST /add beside the query routes
// included: whatever they read of the graph, they read under the
// engine's lock.
//
// Every request passes through the observability envelope
// (middleware.go), shared with the cluster router: request-ID
// assignment, an access log line, per-route latency histograms,
// status-code counters and an in-flight gauge, all recorded in the
// engine's obs.Registry and scrapeable at /metrics (with a JSON mirror
// at /debug/vars and opt-in pprof under /debug/pprof/).
//
// MountReplication puts a durable node's core.Store on the same server:
// the routes a follower tails, and — when the store follows a leader —
// promotion and a lag-gated /readyz. Which role a node plays is the
// store's to say; the server only asks.
package serve

import (
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// Server wraps an engine with HTTP handlers.
type Server struct {
	engine  *core.Engine
	mux     *http.ServeMux
	metrics *EnvelopeMetrics
	// Requests the server's own handlers refuse.
	shed, fencedWrites, logFailures *obs.Counter
	// Log receives one structured access line per request; obs.NopLogger
	// by default so library use stays silent. Replace before serving.
	Log *slog.Logger
	// QueryTimeout bounds each query route's work; past it the handler
	// answers 504. Zero means no per-request deadline (the client's own
	// cancellation still propagates). Set before serving.
	QueryTimeout time.Duration
	// MaxInFlight sheds query-route requests past this many concurrent
	// ones with 503 + Retry-After, keeping tail latency bounded under
	// overload. Zero means unlimited. Set before serving.
	MaxInFlight int
	// Traces, when set, retains query span trees under its tail-based
	// keep rules and serves them on /debug/traces. Nil disables trace
	// retention (spans still time stages and propagate trace context).
	// Set before serving.
	Traces *obs.TraceStore
	// SlowQuery, when positive, logs one structured warn line (with
	// trace id) for every traced request at least this slow. Set before
	// serving.
	SlowQuery time.Duration

	// ReadyProbe, when set, is consulted by /readyz after the boot gate:
	// it returns whether the node should receive traffic and a short
	// status word for the 503 body when it should not (e.g. a
	// replication follower reports false, "replication_lag" until its
	// lag is within bound). Set before serving.
	ReadyProbe func() (ok bool, status string)

	inflightQueries atomic.Int64
	// topology is the /healthz identity block; zero value reports role
	// "single". See SetTopology.
	topology Topology
	// ready gates /readyz (and update acceptance): false until the
	// operator signals that recovery — engine load/build and WAL replay —
	// is complete. See SetReady.
	ready atomic.Bool
}

// The bounds of every query route, on a single node and on a router: when
// a request names no m, DefaultM papers are retrieved for /experts and
// DefaultN for /papers and /similar; when it names no n, DefaultN experts
// are ranked. No request may ask for more than MaxM papers or MaxN experts.
const (
	DefaultM = 200
	DefaultN = 10
	MaxM     = 5000
	MaxN     = 500
)

// New returns a server over a built engine. The server records into the
// engine's metrics registry, beside the engine's own search, ranking and
// cache counters.
func New(engine *core.Engine) *Server {
	reg := engine.Metrics()
	s := &Server{
		engine:       engine,
		mux:          http.NewServeMux(),
		metrics:      NewEnvelopeMetrics(reg),
		shed:         reg.Counter("expertfind_http_shed_total", "Query requests shed because the in-flight limit was reached."),
		fencedWrites: reg.Counter("expertfind_http_fenced_writes_total", "Writes rejected because this node's WAL is fenced by a newer epoch."),
		logFailures:  reg.Counter("expertfind_http_update_log_failures_total", "Updates rejected because the write-ahead log failed."),
		Log:          obs.NopLogger(),
	}
	s.mux.HandleFunc("/experts", s.handleExperts)
	s.mux.HandleFunc("/papers", s.handlePapers)
	s.mux.HandleFunc("/similar", s.handleSimilar)
	s.mux.HandleFunc("/add", s.handleAdd)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	return s
}

// Handle mounts an additional handler on the server's mux, behind the
// same observability middleware as the built-in routes. The cluster layer
// uses this to expose the internal /shard/* APIs on a shard server.
func (s *Server) Handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, h)
}

// WriteJSON answers 200 with v through Envelope.WriteJSON, the one body
// writer (compact JSON, clean 500 when v does not encode); exported for
// handlers mounted via Handle.
func (s *Server) WriteJSON(w http.ResponseWriter, v interface{}) {
	s.envelope().WriteJSON(w, http.StatusOK, v)
}

// SetReady flips the /readyz gate. Serve it false while booting —
// building or loading the engine, replaying the WAL — so load
// balancers keep traffic away from a replica that cannot yet answer
// (or durably accept) anything; flip it true once recovery completes,
// and back to false when shutdown begins.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *obs.Registry { return s.metrics.Reg }

// statusClientClosedRequest is nginx's 499: the client went away before
// the response was ready, so no status will reach it anyway — but the
// access log and counters should not blame the server with a 5xx.
const statusClientClosedRequest = 499

// acquireQuerySlot admits a query-route request under the MaxInFlight
// bound, or sheds it with 503 + Retry-After. The returned release must be
// called when the handler finishes; ok=false means the response is
// already written.
func (s *Server) acquireQuerySlot(w http.ResponseWriter) (release func(), ok bool) {
	if s.MaxInFlight <= 0 {
		return func() {}, true
	}
	for {
		cur := s.inflightQueries.Load()
		if cur >= int64(s.MaxInFlight) {
			s.shed.Inc()
			retryLater(w)
			http.Error(w, "server overloaded, retry later", http.StatusServiceUnavailable)
			return nil, false
		}
		if s.inflightQueries.CompareAndSwap(cur, cur+1) {
			return func() { s.inflightQueries.Add(-1) }, true
		}
	}
}

// retryLater stamps the Retry-After hint every transient 503 carries:
// look again in a second.
func retryLater(w http.ResponseWriter) { w.Header().Set("Retry-After", "1") }

// ExpertResult is one expert in an /experts response.
type ExpertResult struct {
	Rank   int     `json:"rank"`
	ID     int32   `json:"id"`
	Name   string  `json:"name"`
	Score  float64 `json:"score"`
	Papers int     `json:"papers"`
}

// ExpertsResponse is the /experts payload.
type ExpertsResponse struct {
	Query      string         `json:"query"`
	Experts    []ExpertResult `json:"experts"`
	ResponseMs float64        `json:"response_ms"`
	Candidates int            `json:"candidates"`
	TADepth    int            `json:"ta_depth"`
	Cached     bool           `json:"cached"`
	// Debug carries the opt-in (?debug=1) trace id and stage breakdown;
	// omitted otherwise, so default responses carry no trace of tracing.
	Debug *QueryDebug `json:"debug,omitempty"`
}

func (s *Server) handleExperts(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	n, err := IntParam(params, "n", DefaultN, MaxN)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := IntParam(params, "m", DefaultM, MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.acquireQuerySlot(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := QueryContext(r, s.QueryTimeout)
	defer cancel()

	ranked, st, err := s.engine.TopExpertsCtx(ctx, q, m, n)
	if s.envelope().WriteQueryError(w, err) {
		return
	}
	resp := ExpertsResponse{
		Query:      q,
		ResponseMs: float64(st.Total().Microseconds()) / 1000,
		Candidates: st.TA.Candidates,
		TADepth:    st.TA.Depth,
		Cached:     st.CacheHit,
		Experts:    make([]ExpertResult, 0, len(ranked)),
	}
	s.engine.ReadGraph(func(g *hetgraph.Graph) {
		for i, e := range ranked {
			resp.Experts = append(resp.Experts, ExpertResult{
				Rank:   i + 1,
				ID:     int32(e.Expert),
				Name:   g.Label(e.Expert),
				Score:  e.Score,
				Papers: len(g.PapersOf(e.Expert)),
			})
		}
	})
	if params.Get("debug") == "1" {
		resp.Debug = &QueryDebug{
			// Empty on a cache hit: the answer ran no spans this time.
			TraceID: obs.TraceIDFromContext(ctx),
			Stages: []StageTiming{
				{Name: "encode", Ms: float64(st.EncodeTime.Microseconds()) / 1000},
				{Name: "retrieve", Ms: float64(st.RetrieveTime.Microseconds()) / 1000},
				{Name: "rank", Ms: float64(st.RankTime.Microseconds()) / 1000},
			},
		}
	}
	s.WriteJSON(w, resp)
}

// PaperTextRunes is how many runes of a paper's text a /papers response
// carries, on a single node and through the router alike.
const PaperTextRunes = 120

// PaperResult is one paper in a /papers response.
type PaperResult struct {
	Rank    int      `json:"rank"`
	ID      int32    `json:"id"`
	Text    string   `json:"text"`
	Authors []string `json:"authors"`
}

// paperResults renders retrieved papers in rank order, reading their
// text and authors under the engine's lock.
func (s *Server) paperResults(papers []hetgraph.NodeID) []PaperResult {
	out := make([]PaperResult, 0, len(papers))
	s.engine.ReadGraph(func(g *hetgraph.Graph) {
		for i, p := range papers {
			pr := PaperResult{Rank: i + 1, ID: int32(p), Text: Truncate(g.Label(p), PaperTextRunes)}
			for _, a := range g.AuthorsOf(p) {
				pr.Authors = append(pr.Authors, g.Label(a))
			}
			out = append(out, pr)
		}
	})
	return out
}

func (s *Server) handlePapers(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m, err := IntParam(params, "m", DefaultN, MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.acquireQuerySlot(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := QueryContext(r, s.QueryTimeout)
	defer cancel()
	papers, _, err := s.engine.RetrievePapersCtx(ctx, q, m)
	if s.envelope().WriteQueryError(w, err) {
		return
	}
	s.WriteJSON(w, s.paperResults(papers))
}

// handleSimilar returns the papers most similar to an already-indexed
// paper, by its node id — the related-work lookup the embeddings support
// directly. The search goes through the engine so the configured EF
// search-pool option applies, exactly as it does for /experts.
func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	raw := params.Get("id")
	if raw == "" {
		http.Error(w, "missing id parameter", http.StatusBadRequest)
		return
	}
	id64, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		http.Error(w, "id must be an integer node id", http.StatusBadRequest)
		return
	}
	m, err := IntParam(params, "m", DefaultN, MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.acquireQuerySlot(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := QueryContext(r, s.QueryTimeout)
	defer cancel()
	ids, _, err := s.engine.SimilarPapers(ctx, hetgraph.NodeID(id64), m)
	switch {
	case errors.Is(err, core.ErrUnknownPaper):
		http.Error(w, "unknown paper id", http.StatusNotFound)
		return
	case s.envelope().WriteQueryError(w, err):
		return
	}
	s.WriteJSON(w, s.paperResults(ids))
}

// AddRequest is the POST /add body: one paper to accept online.
type AddRequest struct {
	Text    string  `json:"text"`
	Authors []int32 `json:"authors"`
	Venues  []int32 `json:"venues,omitempty"`
	Topics  []int32 `json:"topics,omitempty"`
	Cites   []int32 `json:"cites,omitempty"`
}

// AddResponse acknowledges an accepted paper. By the time a client
// reads this, the update is recorded in the write-ahead log (when one
// is attached) — it survives kill -9 to the durability promised by the
// configured fsync policy.
type AddResponse struct {
	ID  int32  `json:"id"`
	Seq uint64 `json:"seq"`
}

// handleAdd accepts one paper into the live engine. Status mapping:
// 200 applied (and logged, when durability is on); 400 invalid
// update; 409 this node is fenced by a newer replication epoch — write
// to the new leader instead; 503 not ready, writes denied (follower),
// or the write-ahead log refused the record — the update was NOT
// applied and the client should retry.
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.ready.Load() {
		retryLater(w)
		http.Error(w, "engine not ready, still recovering", http.StatusServiceUnavailable)
		return
	}
	var req AddRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
		return
	}
	id, err := s.engine.AddPaper(core.NewPaper{
		Text:    req.Text,
		Authors: toNodeIDs(req.Authors),
		Venues:  toNodeIDs(req.Venues),
		Topics:  toNodeIDs(req.Topics),
		Cites:   toNodeIDs(req.Cites),
	})
	var invalid *core.InvalidUpdateError
	var logErr *core.UpdateLogError
	var fenced *durable.FencedError
	switch {
	case errors.As(err, &invalid):
		http.Error(w, invalid.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, core.ErrReadOnly):
		// A following store: its writes come from its leader's log
		// until it is promoted.
		retryLater(w)
		http.Error(w, "replication follower serves reads only; write to the leader",
			http.StatusServiceUnavailable)
		return
	case errors.As(err, &fenced):
		// This node was deposed by a newer replication epoch: the write
		// belongs on the new leader, and no amount of retrying here will
		// ever apply it. 409, not 503 — the conflict is permanent.
		s.fencedWrites.Inc()
		http.Error(w, fenced.Error(), http.StatusConflict)
		return
	case errors.As(err, &logErr):
		s.logFailures.Inc()
		retryLater(w)
		http.Error(w, "durability unavailable, update not applied; retry",
			http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.WriteJSON(w, AddResponse{ID: int32(id), Seq: s.engine.LastUpdateSeq()})
}

func toNodeIDs(ids []int32) []hetgraph.NodeID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]hetgraph.NodeID, len(ids))
	for i, id := range ids {
		out[i] = hetgraph.NodeID(id)
	}
	return out
}

// ReadyResponse is the /readyz payload.
type ReadyResponse struct {
	Status string `json:"status"`
}

// handleReady is the load-balancer gate, distinct from /healthz
// (liveness): 503 until the engine is loaded/recovered and WAL replay
// has finished, so a booting replica receives no traffic; 503 again
// once shutdown begins, so connections drain away. A ReadyProbe can
// impose further conditions — a replication follower stays 503 (status
// "replication_lag") until its lag is within bound. Every 503 carries
// Retry-After so probes know the condition is transient.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	status := "loading"
	ready := s.ready.Load()
	if ready && s.ReadyProbe != nil {
		var ok bool
		if ok, status = s.ReadyProbe(); !ok {
			ready = false
			if status == "" {
				status = "loading"
			}
		}
	}
	if !ready {
		retryLater(w)
		s.envelope().WriteJSON(w, http.StatusServiceUnavailable, ReadyResponse{Status: status})
		return
	}
	s.WriteJSON(w, ReadyResponse{Status: "ready"})
}

// Topology identifies a process's place in a (possibly sharded) cluster,
// reported on /healthz so probes and operators can tell topology members
// apart. A single-node server is role "single"; shard servers add their
// shard position, and routers list the replica sets they fan out to.
type Topology struct {
	Role string `json:"role"`
	// ShardID/Shards place a shard server in the partition (shard role
	// only; ShardID is meaningful when Shards > 0).
	ShardID int `json:"shard_id,omitempty"`
	Shards  int `json:"shards,omitempty"`
	// OwnedPapers counts the papers this shard serves (shard role only).
	OwnedPapers int `json:"owned_papers,omitempty"`
	// Replicas lists each shard's replica addresses (router role only).
	Replicas [][]string `json:"replicas,omitempty"`
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Topology
	Papers     int   `json:"papers"`
	Experts    int   `json:"experts"`
	VocabSize  int   `json:"vocab_size"`
	IndexEdges int   `json:"index_edges"`
	IndexBytes int64 `json:"index_bytes"`
}

// SetTopology overrides the topology block reported on /healthz. The
// default is role "single"; shard mode calls this with its shard
// coordinates before serving.
func (s *Server) SetTopology(t Topology) { s.topology = t }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.engine.Stats()
	resp := HealthResponse{
		Topology:   s.topology,
		VocabSize:  st.VocabSize,
		IndexEdges: st.IndexEdges,
		IndexBytes: st.IndexMemory,
	}
	if resp.Role == "" {
		resp.Role = "single"
	}
	s.engine.ReadGraph(func(g *hetgraph.Graph) {
		resp.Papers = g.NumNodesOfType(hetgraph.Paper)
		resp.Experts = g.NumNodesOfType(hetgraph.Author)
	})
	s.WriteJSON(w, resp)
}
