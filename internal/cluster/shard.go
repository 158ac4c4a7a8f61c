package cluster

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// BudgetHeader carries the router's per-attempt deadline budget, in
// milliseconds, to the shard. The shard bounds its own work by it so a
// sub-request never outlives the fan-out attempt that issued it — the
// router's context deadline cannot reach across the process boundary, the
// header can.
const BudgetHeader = "X-Budget-Ms"

// MountShard exposes the internal shard API on an existing serve.Server:
//
//	GET /shard/papers?q=&m=[&authors=1][&meta=1] -> PapersResponse
//
// with the body in the frame proto.go lays out. The route rides the
// server's observability middleware like the public ones, and honours the
// X-Budget-Ms deadline budget. The server's /healthz topology block is set
// to the shard's coordinates (satisfying probes that must tell topology
// members apart).
//
// A shard whose store follows a leader is a drop-in member of a router
// replica set: serve.MountReplication, mounted after this, reports role
// "follower" and holds /readyz at 503 until the lag is within bound, and
// the router's ejection and re-admission already key off /readyz.
func MountShard(srv *serve.Server, se *ShardEngine) {
	sh := &shardAPI{se: se}
	srv.Handle("/shard/papers", sh.handlePapers)
	srv.SetTopology(serve.Topology{
		Role:        "shard",
		ShardID:     se.ID(),
		Shards:      se.Of(),
		OwnedPapers: se.NumOwned(),
	})
}

type shardAPI struct{ se *ShardEngine }

// budgetContext bounds ctx by the request's X-Budget-Ms header, when
// present and positive.
func budgetContext(ctx context.Context, r *http.Request) (context.Context, context.CancelFunc) {
	raw := r.Header.Get(BudgetHeader)
	if raw == "" {
		return ctx, func() {}
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
}

// writeShardError maps shard-side failures the way the public query
// routes do: 400 for bad parameters, 504 past the budget, 499 when the
// router went away, 500 otherwise.
func writeShardError(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	var bad *core.BadParamError
	switch {
	case errors.As(err, &bad):
		http.Error(w, bad.Error(), http.StatusBadRequest)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "shard budget exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "router closed request", 499)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return true
}

// exportTree closes the shard-side root span and returns its tree for
// the frame's trace section when the router asked for it.
func exportTree(span *obs.Span, r *http.Request) *obs.SpanNode {
	span.End()
	if r.Header.Get(obs.CollectHeader) != "1" {
		return nil
	}
	t := span.Tree()
	return &t
}

func (sh *shardAPI) handlePapers(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	q := params.Get("q")
	if q == "" {
		http.Error(w, "missing q parameter", http.StatusBadRequest)
		return
	}
	m, err := strconv.Atoi(params.Get("m"))
	if err != nil || m < 1 {
		http.Error(w, "parameter m must be a positive integer", http.StatusBadRequest)
		return
	}
	withText := params.Get("meta") == "1"
	withAuthors := withText || params.Get("authors") == "1"
	// The root span joins the router's trace through the remote context
	// the serve middleware extracted from X-Trace-Context.
	sctx, span := obs.StartSpan(r.Context(), "shard_papers")
	span.Annotate("shard", strconv.Itoa(sh.se.ID()))
	defer span.End()
	ctx, cancel := budgetContext(sctx, r)
	defer cancel()

	res, err := sh.se.Retrieve(ctx, q, m)
	if writeShardError(w, err) {
		return
	}
	resp := sh.se.Papers(res, withAuthors, withText)
	resp.Trace = exportTree(span, r)
	frame := encodeFrame(resp)
	resp.free()
	// The length lets the router read the frame into one buffer of its
	// size.
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
	freeFrameBuf(frame)
}
