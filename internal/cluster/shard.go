package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"expertfind/internal/obs"
	"expertfind/internal/serve"
)

// MountShard exposes the internal shard API on an existing serve.Server:
//
//	POST /shard/papers, body a PapersRequest -> PapersResponse
//
// both bodies the frames proto.go lays out (any other method is 405). The
// route rides the server's observability middleware like the public ones;
// the server's /healthz topology block is set to the shard's coordinates.
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

// readRequest reads a body of declared length, at most maxRequestBody,
// into a buffer from frameBuf and decodes it into req.
func readRequest(r *http.Request, req *PapersRequest) error {
	if n := r.ContentLength; n < 0 || n > maxRequestBody {
		return &FrameError{fmt.Sprintf("Content-Length %d, want 0 to %d", n, maxRequestBody)}
	}
	b := frameBuf(int(r.ContentLength))
	defer freeFrameBuf(b)
	if _, err := io.ReadFull(r.Body, b); err != nil {
		return &FrameError{"reading the body: " + err.Error()}
	}
	return decodeRequest(b, req)
}

// shardContext derives req's context: bounded by a positive budget, and
// keeping the root span's tree when the router collects it.
func (req *PapersRequest) shardContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if req.Collect {
		ctx = obs.WithSpanTree(ctx)
	}
	if req.BudgetMs <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, time.Duration(req.BudgetMs)*time.Millisecond)
}

// writeShardError maps shard-side failures the way the public query
// routes do: 504 past the budget, 499 when the router went away, 500
// otherwise (the request's decoder has refused bad parameters).
func writeShardError(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "shard budget exceeded", http.StatusGatewayTimeout)
	case errors.Is(err, context.Canceled):
		http.Error(w, "router closed request", 499)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return true
}

func (sh *shardAPI) handlePapers(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req PapersRequest
	if err := readRequest(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Where the envelope's trace record and slow-query line find the text.
	if c := obs.CaptureFromContext(r.Context()); c != nil {
		c.Query = req.Query
	}
	ctx, cancel := req.shardContext(r.Context())
	defer cancel()
	// The root span joins the router's trace through the remote context
	// the serve middleware extracted from X-Trace-Context.
	ctx, span := obs.StartSpan(ctx, "shard_papers")
	span.Annotate("shard", strconv.Itoa(sh.se.ID()))
	defer span.End()

	res, err := sh.se.Retrieve(ctx, req.Query, req.M)
	if writeShardError(w, err) {
		return
	}
	resp := sh.se.Papers(res, req.Authors || req.Text, req.Text)
	if span.End(); req.Collect {
		t := span.Tree()
		resp.Trace = &t
	}
	frame := encodeFrame(resp)
	resp.free()
	// The length lets the router read the frame into one buffer.
	w.Header().Set("Content-Type", frameContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
	freeFrameBuf(frame)
}
