package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// RouterConfig tunes the router's query handling. Its query bounds are
// the single node's (serve.DefaultM and the rest).
type RouterConfig struct {
	// QueryTimeout bounds each query end to end (504 past it); the
	// per-shard budgets of every scatter derive from what remains of it.
	QueryTimeout time.Duration
}

// Router is the scatter-gather front of a sharded cluster. It holds no
// corpus: a query fans out once to the shard replicas through a
// ShardClient, and the router ranks experts itself over the papers and
// author lists that come back (rankExperts). Responses match the
// single-node /experts and /papers bodies field for field, so clients
// cannot tell the topologies apart.
type Router struct {
	mux         *http.ServeMux
	client      *ShardClient
	cfg         RouterConfig
	metrics     *serve.EnvelopeMetrics
	rank        *ta.Metrics
	unavailable *obs.Counter
	Log         *slog.Logger
	// Traces, when set, retains assembled cross-node query traces under
	// its tail-based keep rules and serves them on /debug/traces. It also
	// switches span collection on: sub-requests ask shards to return
	// their span trees, which are grafted under the fan-out spans. Set
	// before serving.
	Traces *obs.TraceStore
	// SlowQuery, when positive, logs one structured warn line (with
	// trace id) for every query at least this slow. Set before serving.
	SlowQuery time.Duration

	bootOK atomic.Bool
	ready  atomic.Bool
}

// NewRouter assembles a router over a shard client, recording into reg
// (obs.Default() when nil).
func NewRouter(client *ShardClient, cfg RouterConfig, reg *obs.Registry, log *slog.Logger) *Router {
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	rt := &Router{
		mux:     http.NewServeMux(),
		client:  client,
		cfg:     cfg,
		metrics: serve.NewEnvelopeMetrics(reg),
		rank:    ta.NewMetrics(reg),
		unavailable: reg.Counter("expertfind_cluster_shard_unavailable_total",
			"Queries failed because a whole shard (every replica) was unreachable."),
		Log: log,
	}
	rt.ready.Store(true)
	rt.mux.HandleFunc("/experts", rt.handleExperts)
	rt.mux.HandleFunc("/papers", rt.handlePapers)
	rt.mux.HandleFunc("/healthz", rt.handleHealth)
	rt.mux.HandleFunc("/readyz", rt.handleReady)
	return rt
}

// SetReady flips the router's own readiness contribution (shutdown sets
// it false so probes drain traffic away; shard readiness is evaluated on
// top of it).
func (rt *Router) SetReady(ready bool) { rt.ready.Store(ready) }

// routerRoutes and routerTraced are the router's route tables: the two
// query routes, probes, and the envelope's own endpoints.
var routerRoutes = map[string]bool{
	"/experts":       true,
	"/papers":        true,
	"/healthz":       true,
	"/readyz":        true,
	"/metrics":       true,
	"/debug/vars":    true,
	"/debug/traces":  true,
	"/debug/traces/": true,
}

var routerTraced = map[string]bool{"/experts": true, "/papers": true}

// envelope assembles the router's HTTP shell — the same one the
// single-node server runs in — from its current settings.
func (rt *Router) envelope() serve.Envelope {
	return serve.Envelope{Metrics: rt.metrics, Log: rt.Log, Traces: rt.Traces, SlowQuery: rt.SlowQuery,
		Routes: routerRoutes, Traced: routerTraced}
}

// ServeHTTP implements http.Handler: the shared envelope around the
// router's routes.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.envelope().Serve(w, r, rt.mux)
}

type requestIDKey struct{}

// queryContext derives a query handler's context: bounded by
// QueryTimeout, carrying the request ID the envelope stamped on the
// response so shard sub-requests forward it, and — when a trace store is
// attached — the collect flag that makes sub-requests ask shards for
// their span trees.
func (rt *Router) queryContext(w http.ResponseWriter, r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := serve.QueryContext(r, rt.cfg.QueryTimeout)
	ctx = context.WithValue(ctx, requestIDKey{}, w.Header().Get("X-Request-ID"))
	if rt.Traces != nil {
		ctx = withCollect(ctx)
	}
	return ctx, cancel
}

// writeRouterError maps fan-out failures onto client statuses: a whole
// shard down, or shards whose answers cannot be merged, is 502 (the merge
// would be silently wrong — correctness beats availability); an expired
// budget (504, counted), a departed client (499) and the rest map as on a
// single node.
func (rt *Router) writeRouterError(w http.ResponseWriter, err error) bool {
	var se *shardError
	if errors.As(err, &se) && !errors.Is(err, context.DeadlineExceeded) {
		rt.unavailable.Inc()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return true
	}
	return rt.envelope().WriteQueryError(w, err)
}

// rankedPaper is one globally merged retrieved paper with the shard it
// came from; its global rank is its position in the merged list plus one.
type rankedPaper struct {
	WirePaper
	shard int
}

// startFanout opens the per-shard fan-out span under ctx: the parent of
// this sub-request's rpc attempts and the graft point for the shard's
// returned span tree.
func startFanout(ctx context.Context, shard int) (context.Context, *obs.Span) {
	fctx, span := obs.StartSpan(ctx, "fanout")
	span.Annotate("shard", strconv.Itoa(shard))
	return fctx, span
}

// scatterPapers fans GET /shard/papers out to every shard — detail is
// "&authors=1", "&meta=1" or empty — and returns the per-shard results.
// Any shard failing entirely fails the query.
func (rt *Router) scatterPapers(ctx context.Context, q string, m int, detail string) ([]*PapersResponse, error) {
	path := "/shard/papers?q=" + url.QueryEscape(q) + "&m=" + strconv.Itoa(m) + detail
	s := rt.client.NumShards()
	resps := make([]*PapersResponse, s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fctx, fanout := startFanout(ctx, i)
			defer fanout.End()
			b, err := rt.client.Get(fctx, i, path)
			if err != nil {
				errs[i] = err
				return
			}
			var pr PapersResponse
			if err := decodeFrame(b, &pr); err != nil {
				errs[i] = &shardError{shard: i, err: fmt.Errorf("bad papers payload: %w", err)}
				return
			}
			fanout.End()
			if pr.Trace != nil {
				fanout.Graft(*pr.Trace)
			}
			resps[i] = &pr
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// before is the one retrieval order, (distance ascending, id ascending):
// the comparator of the single-node exact retrieval.
func (p *WirePaper) before(q *WirePaper) bool {
	return p.Dist < q.Dist || (p.Dist == q.Dist && p.ID < q.ID)
}

// mergePapers merges the shards' retrieval lists, each already in
// retrieval order, into the global top-m under that order applied to the
// same distance bits, so the merged list equals the single-node list when
// shards retrieve exactly. A paper's owner is the shard that was ASKED, not
// the id in the payload (the client refuses a frame that claims another
// shard). It refuses, naming the shards, what would corrupt the expert sum:
// a list out of order, and a paper two shards both returned — or one
// returned twice — which would be summed twice.
func mergePapers(resps []*PapersResponse, m int) ([]rankedPaper, error) {
	total := 0
	for _, r := range resps {
		total += len(r.Papers)
	}
	out := make([]rankedPaper, 0, min(m, total))
	next := make([]int, len(resps)) // per shard, the head of its list
	for len(out) < cap(out) {
		var head *WirePaper
		from := -1
		for i, r := range resps {
			if next[i] == len(r.Papers) {
				continue
			}
			p := &r.Papers[next[i]]
			switch {
			case head == nil || p.before(head):
				head, from = p, i
			case !head.before(p):
				return nil, &shardError{shard: i, err: fmt.Errorf("paper %d also came from shard %d", p.ID, from)}
			}
		}
		if k := next[from]; k > 0 && !resps[from].Papers[k-1].before(head) {
			return nil, &shardError{shard: from, err: fmt.Errorf(
				"papers %d and %d are not in (distance, id) order", resps[from].Papers[k-1].ID, head.ID)}
		}
		out = append(out, rankedPaper{WirePaper: *head, shard: from})
		next[from]++
	}
	return out, nil
}

// findAuthor looks an author up in the shards' tables, which are in
// ascending id order; every shard that lists the author says the same of it.
func findAuthor(resps []*PapersResponse, id hetgraph.NodeID) (WireAuthor, bool) {
	for _, r := range resps {
		if i, ok := slices.BinarySearchFunc(r.Authors, id, func(a WireAuthor, id hetgraph.NodeID) int {
			return cmp.Compare(a.ID, id)
		}); ok {
			return r.Authors[i], true
		}
	}
	return WireAuthor{}, false
}

// missingAuthor is the refusal of an author some paper lists and no table
// holds; it names the shards whose papers list it.
func missingAuthor(papers []rankedPaper, id hetgraph.NodeID) error {
	var shards []int
	for _, p := range papers {
		if slices.Contains(p.Authors, id) && !slices.Contains(shards, p.shard) {
			shards = append(shards, p.shard)
		}
	}
	slices.Sort(shards)
	return &shardError{shard: shards[0], err: fmt.Errorf(
		"author %d is in no author table; shards %v sent papers listing it", id, shards)}
}

// rankExperts is the distributed pipeline in one round: scatter the
// retrieval with author lists, then rank what came back, recording the
// ranking in the router's registry.
func (rt *Router) rankExperts(ctx context.Context, q string, m, n int) ([]serve.ExpertResult, ta.Stats, error) {
	sctx, sp := obs.StartSpan(ctx, "scatter_papers")
	resps, err := rt.scatterPapers(sctx, q, m, "&authors=1")
	sp.End()
	if err != nil {
		return nil, ta.Stats{}, err
	}
	experts, st, err := rankResponses(ctx, resps, m, n)
	if err == nil {
		rt.rank.Record(st)
	}
	return experts, st, err
}

// rankResponses merges the shards' answers into the global top-m and runs
// the single node's own expert sum (ta.TopExpertsOf) over the merged author
// lists: every term of Eq. 4 needs only a paper's global rank and its
// ordered authors, both of which the router holds, so scores, ties and work
// stats are the single node's, bit for bit. The n winners take their name
// and paper count from the shards' author tables.
func rankResponses(ctx context.Context, resps []*PapersResponse, m, n int) ([]serve.ExpertResult, ta.Stats, error) {
	_, mp := obs.StartSpan(ctx, "merge_papers")
	papers, err := mergePapers(resps, m)
	mp.End()
	if err != nil {
		return nil, ta.Stats{}, err
	}

	rctx, rs := obs.StartSpan(ctx, "rank")
	defer rs.End()
	top, st, err := ta.TopExpertsOf(rctx, len(papers), func(j int) []hetgraph.NodeID { return papers[j].Authors }, n)
	if err != nil {
		return nil, st, err
	}
	experts := make([]serve.ExpertResult, len(top))
	for i, r := range top {
		a, ok := findAuthor(resps, r.Expert)
		if !ok {
			return nil, st, missingAuthor(papers, r.Expert)
		}
		experts[i] = serve.ExpertResult{Rank: i + 1, ID: int32(r.Expert), Name: a.Name, Score: r.Score, Papers: a.Papers}
	}
	return experts, st, nil
}

func (rt *Router) handleExperts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	n, err := serve.IntParam(params, "n", serve.DefaultN, serve.MaxN)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := serve.IntParam(params, "m", serve.DefaultM, serve.MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := rt.queryContext(w, r)
	defer cancel()

	// The root span of the distributed query: every fan-out, retry and
	// hedge below shares its trace id, and the middleware capture picks
	// it up for the trace store.
	qctx, root := obs.StartSpan(ctx, "query")
	experts, st, err := rt.rankExperts(qctx, q, m, n)
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	resp := serve.ExpertsResponse{
		Query:      q,
		Experts:    experts,
		ResponseMs: float64(time.Since(start).Microseconds()) / 1000,
		Candidates: st.Candidates,
		TADepth:    st.Depth,
	}
	if params.Get("debug") == "1" {
		resp.Debug = &serve.QueryDebug{
			TraceID: root.TraceIDString(),
			Stages:  serve.StagesFromTree(root.Tree()),
		}
	}
	rt.envelope().WriteJSON(w, http.StatusOK, resp)
}

func (rt *Router) handlePapers(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m, err := serve.IntParam(params, "m", serve.DefaultN, serve.MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := rt.queryContext(w, r)
	defer cancel()
	qctx, root := obs.StartSpan(ctx, "papers")
	resps, err := rt.scatterPapers(qctx, q, m, "&meta=1")
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	merged, err := mergePapers(resps, m)
	if rt.writeRouterError(w, err) {
		return
	}
	out := make([]serve.PaperResult, len(merged))
	for i, p := range merged {
		out[i] = serve.PaperResult{Rank: i + 1, ID: p.ID, Text: serve.Truncate(p.Text, 120)}
		for _, id := range p.Authors {
			a, ok := findAuthor(resps, id)
			if !ok {
				rt.writeRouterError(w, missingAuthor(merged, id))
				return
			}
			out[i].Authors = append(out[i].Authors, a.Name)
		}
	}
	rt.envelope().WriteJSON(w, http.StatusOK, out)
}

// RouterHealth is the router's /healthz payload.
type RouterHealth struct {
	serve.Topology
	AliveReplicas []int `json:"alive_replicas"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.envelope().WriteJSON(w, http.StatusOK, RouterHealth{
		Topology: serve.Topology{
			Role:     "router",
			Shards:   rt.client.NumShards(),
			Replicas: rt.client.Replicas(),
		},
		AliveReplicas: rt.client.AliveReplicas(),
	})
}

// handleReady gates traffic on the whole topology: at boot the router
// scans every shard for a ready replica once; afterwards a shard losing
// all its non-ejected replicas flips readiness off until a probe
// re-admits one.
func (rt *Router) handleReady(w http.ResponseWriter, r *http.Request) {
	notReady := func(why string) {
		rt.envelope().WriteJSON(w, http.StatusServiceUnavailable, serve.ReadyResponse{Status: why})
	}
	if !rt.ready.Load() {
		notReady("draining")
		return
	}
	if !rt.bootOK.Load() {
		if !rt.client.CheckReady(r.Context()) {
			notReady("waiting for shards")
			return
		}
		rt.bootOK.Store(true)
	}
	for shard, alive := range rt.client.AliveReplicas() {
		if alive == 0 {
			notReady(fmt.Sprintf("shard %d has no live replicas", shard))
			return
		}
	}
	rt.envelope().WriteJSON(w, http.StatusOK, serve.ReadyResponse{Status: "ready"})
}
