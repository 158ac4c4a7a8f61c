package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
	"expertfind/internal/ta"
)

// RouterConfig tunes the router's query handling.
type RouterConfig struct {
	// DefaultM/DefaultN/MaxM/MaxN mirror the single-node serve bounds.
	DefaultM, DefaultN, MaxM, MaxN int
	// QueryTimeout bounds each query end to end (504 past it); the
	// per-shard budgets of every scatter derive from what remains of it.
	QueryTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.DefaultM <= 0 {
		c.DefaultM = 200
	}
	if c.DefaultN <= 0 {
		c.DefaultN = 10
	}
	if c.MaxM <= 0 {
		c.MaxM = 5000
	}
	if c.MaxN <= 0 {
		c.MaxN = 500
	}
	return c
}

// Router is the scatter-gather front of a sharded cluster. It holds no
// corpus: queries fan out to the shard replicas through a ShardClient and
// the shards' complete partial lists merge in finalRanking. Responses
// match the single-node /experts and /papers shapes byte for byte, so
// clients cannot tell the topologies apart.
type Router struct {
	mux    *http.ServeMux
	client *ShardClient
	cfg    RouterConfig
	reg    *obs.Registry
	Log    *obs.Logger
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

// NewRouter assembles a router over a shard client.
func NewRouter(client *ShardClient, cfg RouterConfig, reg *obs.Registry, log *obs.Logger) *Router {
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	obs.RegisterCluster(reg)
	rt := &Router{
		mux:    http.NewServeMux(),
		client: client,
		cfg:    cfg.withDefaults(),
		reg:    reg,
		Log:    log,
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
	return serve.Envelope{Reg: rt.reg, Log: rt.Log, Traces: rt.Traces, SlowQuery: rt.SlowQuery,
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
// shard down is 502 (the merge would be silently wrong without its
// partials — correctness beats availability); an expired budget (504,
// counted), a departed client (499) and the rest map as on a single node.
func (rt *Router) writeRouterError(w http.ResponseWriter, err error) bool {
	var se *shardError
	if errors.As(err, &se) && !errors.Is(err, context.DeadlineExceeded) {
		rt.reg.Counter("expertfind_cluster_shard_unavailable_total",
			"Queries failed because a whole shard (every replica) was unreachable.").Inc()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return true
	}
	return rt.envelope().WriteQueryError(w, err)
}

// rankedPaper is one globally merged retrieved paper with its origin.
type rankedPaper struct {
	WirePaper
	shard int
	rank  int
}

// startFanout opens the per-shard fan-out span under ctx: the parent of
// this sub-request's rpc attempts and the graft point for the shard's
// returned span tree.
func startFanout(ctx context.Context, shard int) (context.Context, *obs.Span) {
	fctx, span := obs.StartSpan(ctx, "fanout")
	span.Annotate("shard", strconv.Itoa(shard))
	return fctx, span
}

// scatterPapers fans GET /shard/papers out to every shard and returns the
// per-shard results. Any shard failing entirely fails the query.
func (rt *Router) scatterPapers(ctx context.Context, q string, m int, meta bool) ([]*PapersResponse, error) {
	s := rt.client.NumShards()
	resps := make([]*PapersResponse, s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := "/shard/papers?q=" + url.QueryEscape(q) + "&m=" + strconv.Itoa(m)
			if meta {
				path += "&meta=1"
			}
			fctx, fanout := startFanout(ctx, i)
			defer fanout.End()
			b, err := rt.client.Get(fctx, i, path)
			if err != nil {
				errs[i] = err
				return
			}
			var pr PapersResponse
			if err := decodeFrame(b, tagPapers, &pr); err != nil {
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

// mergePapers combines per-shard retrieval lists into the global top-m by
// (distance ascending, id ascending) — the exact comparator of the
// single-node brute-force retrieval, applied to the same distance bits,
// so the merged list equals the single-node list when shards retrieve
// exactly. A paper's owner is the shard that was ASKED, not the id in the
// payload (the client refuses a frame that claims another shard).
func mergePapers(resps []*PapersResponse, m int) []rankedPaper {
	total := 0
	for _, r := range resps {
		total += len(r.Papers)
	}
	all := make([]rankedPaper, 0, total)
	for i, r := range resps {
		for _, p := range r.Papers {
			all = append(all, rankedPaper{WirePaper: p, shard: i})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > m {
		all = all[:m]
	}
	for i := range all {
		all[i].rank = i + 1
	}
	return all
}

// scatterExperts fans POST /shard/experts out to the shards owning at
// least one ranked paper, each receiving its papers once. The returned
// slice is indexed by shard; shards with no papers stay nil.
func (rt *Router) scatterExperts(ctx context.Context, papers []rankedPaper) ([]*ShardExpertsResponse, error) {
	s := rt.client.NumShards()
	perShard := make([][]RankedPaper, s)
	for _, p := range papers {
		perShard[p.shard] = append(perShard[p.shard], RankedPaper{ID: p.ID, Rank: p.rank})
	}
	resps := make([]*ShardExpertsResponse, s)
	errs := make([]error, s)
	var wg sync.WaitGroup
	for i := 0; i < s; i++ {
		if len(perShard[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fctx, fanout := startFanout(ctx, i)
			defer fanout.End()
			b, err := rt.client.Post(fctx, i, "/shard/experts",
				encodeFrame(tagRequest, &ExpertsRequest{Papers: perShard[i]}))
			if err != nil {
				errs[i] = err
				return
			}
			var er ShardExpertsResponse
			if err := decodeFrame(b, tagExperts, &er); err != nil {
				errs[i] = &shardError{shard: i, err: fmt.Errorf("bad experts payload: %w", err)}
				return
			}
			fanout.End()
			if er.Trace != nil {
				fanout.Graft(*er.Trace)
			}
			resps[i] = &er
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

// mergedExpert is one globally ranked expert after the distributed merge.
type mergedExpert struct {
	id     int32
	score  float64
	name   string
	papers int
}

// rankExperts runs the two-round distributed pipeline: retrieval scatter
// + global rank assignment, then one expert scatter whose complete
// per-shard lists finalRanking merges. It returns the global top-n and
// the number of distinct candidates merged.
func (rt *Router) rankExperts(ctx context.Context, q string, m, n int) ([]mergedExpert, int, error) {
	sctx, sp := obs.StartSpan(ctx, "scatter_papers")
	r1, err := rt.scatterPapers(sctx, q, m, false)
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	_, mp := obs.StartSpan(ctx, "merge_papers")
	papers := mergePapers(r1, m)
	mp.End()

	ectx, es := obs.StartSpan(ctx, "scatter_experts")
	resps, err := rt.scatterExperts(ectx, papers)
	es.End()
	if err != nil {
		return nil, 0, err
	}
	experts, candidates := finalRanking(resps, n)
	return experts, candidates, nil
}

// finalRanking is the distributed merge: every shard's list is complete
// (the only kind the frame can carry), so the global ranking is the
// single-node computation over the union of their per-paper
// contributions — flattened, ordered by ascending global rank (the
// single-node summation order) and fed to the accumulator and selector
// ta.TopExperts itself runs on. Scores, and therefore tie behaviour, are
// bit-identical to single-node TopExperts. It returns the top n and the
// number of distinct candidates.
func finalRanking(resps []*ShardExpertsResponse, n int) ([]mergedExpert, int) {
	type term struct {
		expert int32
		Contribution
	}
	var terms []term
	for _, r := range resps {
		if r == nil {
			continue
		}
		for _, e := range r.Experts {
			for _, c := range e.Contribs {
				terms = append(terms, term{e.ID, c})
			}
		}
	}
	slices.SortStableFunc(terms, func(a, b term) int { return cmp.Compare(a.Rank, b.Rank) })
	sc := ta.NewScores(len(terms))
	for _, t := range terms {
		sc.Add(hetgraph.NodeID(t.expert), t.S)
	}
	top := sc.Top(n)

	// Name and paper count ride on every shard's entry for an expert;
	// only the n winners need them.
	out := make([]mergedExpert, len(top))
	at := make(map[int32]int, len(top))
	for i, r := range top {
		out[i] = mergedExpert{id: int32(r.Expert), score: r.Score}
		at[out[i].id] = i
	}
	for _, r := range resps {
		if r == nil {
			continue
		}
		for _, e := range r.Experts {
			if i, ok := at[e.ID]; ok {
				out[i].name, out[i].papers = e.Name, e.Papers
			}
		}
	}
	return out, sc.Len()
}

func (rt *Router) handleExperts(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	n, err := serve.IntParam(r, "n", rt.cfg.DefaultN, rt.cfg.MaxN)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := serve.IntParam(r, "m", rt.cfg.DefaultM, rt.cfg.MaxM)
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
	experts, candidates, err := rt.rankExperts(qctx, q, m, n)
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	resp := serve.ExpertsResponse{
		Query:      q,
		ResponseMs: float64(time.Since(start).Microseconds()) / 1000,
		Candidates: candidates,
		TADepth:    1, // one expert round, certified by construction
		Experts:    make([]serve.ExpertResult, 0, len(experts)),
	}
	for i, e := range experts {
		resp.Experts = append(resp.Experts, serve.ExpertResult{
			Rank:   i + 1,
			ID:     e.id,
			Name:   e.name,
			Score:  e.score,
			Papers: e.papers,
		})
	}
	if r.URL.Query().Get("debug") == "1" {
		resp.Debug = &serve.QueryDebug{
			TraceID: root.TraceID().String(),
			Stages:  serve.StagesFromTree(root.Tree()),
		}
	}
	rt.envelope().WriteJSON(w, resp)
}

func (rt *Router) handlePapers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m, err := serve.IntParam(r, "m", rt.cfg.DefaultN, rt.cfg.MaxM)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := rt.queryContext(w, r)
	defer cancel()
	qctx, root := obs.StartSpan(ctx, "papers")
	resps, err := rt.scatterPapers(qctx, q, m, true)
	root.End()
	if rt.writeRouterError(w, err) {
		return
	}
	merged := mergePapers(resps, m)
	out := make([]serve.PaperResult, 0, len(merged))
	for _, p := range merged {
		out = append(out, serve.PaperResult{
			Rank:    p.rank,
			ID:      p.ID,
			Text:    serve.Truncate(p.Text, 120),
			Authors: p.Authors,
		})
	}
	rt.envelope().WriteJSON(w, out)
}

// RouterHealth is the router's /healthz payload.
type RouterHealth struct {
	serve.Topology
	AliveReplicas []int `json:"alive_replicas"`
}

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.envelope().WriteJSON(w, RouterHealth{
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
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "{\n  \"status\": %q\n}\n", why)
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
	rt.envelope().WriteJSON(w, serve.ReadyResponse{Status: "ready"})
}
