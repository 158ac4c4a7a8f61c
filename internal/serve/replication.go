package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"

	"expertfind/internal/core"
	"expertfind/internal/durable"
)

// MountReplication exposes a store's replication surface on a server:
//
//	GET  /replication/wal?from=N   stream WAL records >= N (raw on-disk
//	                               format), up to the log's last sequence
//	                               at request time; followers re-poll
//	GET  /replication/snapshot     stream the current snapshot file
//	GET  /replication/status       replication state as JSON
//	POST /replication/fence        depose this node: {"epoch": N}
//	POST /replication/promote      promote this follower to leader
//
// fo is non-nil on a follower and enables /replication/promote (plus a
// follower-shaped /replication/status). The same routes stay mounted
// after promotion — a promoted follower serves the tail stream to the
// followers that re-point at it.
//
// Epoch fencing runs on every tail request: a follower sends its epoch,
// and a leader seeing a HIGHER one fences itself on the spot — the
// request proves a newer leader exists — then answers 409, as it does
// for any request once fenced. Responses carry the leader's epoch so
// followers adopt promotions they haven't heard about, and the leader's
// last sequence so followers can compute lag.
func MountReplication(srv *Server, st *core.Store, fo *core.Follower) {
	srv.Handle(core.ReplWALPath, handleReplWAL(srv, st))
	srv.Handle(core.ReplSnapshotPath, handleReplSnapshot(srv, st))
	srv.Handle(core.ReplStatusPath, handleReplStatus(srv, st, fo))
	srv.Handle(core.ReplFencePath, handleReplFence(srv, st))
	if fo != nil {
		srv.Handle(core.ReplPromotePath, handleReplPromote(srv, fo))
	}
}

// replEpochHeaders stamps the node's replication identity on a response.
func replEpochHeaders(w http.ResponseWriter, st *core.Store) {
	w.Header().Set(core.ReplEpochHeader, strconv.FormatUint(st.Epoch(), 10))
	w.Header().Set(core.ReplLastSeqHeader, strconv.FormatUint(st.LastSeq(), 10))
}

func handleReplWAL(srv *Server, st *core.Store) http.HandlerFunc {
	streamErrors := srv.Registry().Counter("expertfind_replication_stream_errors_total",
		"Tail streams aborted mid-flight by a read error.")
	return func(w http.ResponseWriter, r *http.Request) {
		// A request carrying a higher epoch than ours is proof a newer
		// leader was promoted: fence immediately, then refuse — streaming
		// records from a deposed history would feed followers garbage.
		if reqEpoch, err := strconv.ParseUint(r.Header.Get(core.ReplEpochHeader), 10, 64); err == nil {
			if reqEpoch > st.Epoch() {
				if err := st.Fence(reqEpoch); err != nil && !st.Fenced() {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
			}
		}
		if st.Fenced() {
			replEpochHeaders(w, st)
			http.Error(w, "node is fenced by a newer replication epoch",
				http.StatusConflict)
			return
		}
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil || from == 0 {
			http.Error(w, "from must be a positive sequence number", http.StatusBadRequest)
			return
		}
		// The follower's position pins WAL truncation: everything below
		// from is applied over there, everything at or above it is needed.
		if id := r.Header.Get(core.ReplFollowerHeader); id != "" {
			st.ObserveFollower(id, from-1)
		}
		it, err := st.ReadWALFrom(from)
		if errors.Is(err, durable.ErrCompacted) {
			http.Error(w, "requested records already compacted; re-bootstrap from the snapshot",
				http.StatusGone)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer it.Close()
		replEpochHeaders(w, st)
		w.Header().Set("Content-Type", "application/octet-stream")
		// The envelope wraps w; the controller unwraps it to the connection.
		rc := http.NewResponseController(w)
		for {
			seq, payload, err := it.Next()
			if err == io.EOF {
				return // end of this batch; the follower re-polls
			}
			if err != nil {
				// Mid-stream there is no status left to change; cutting the
				// connection leaves the follower a torn tail it knows how to
				// resume from.
				streamErrors.Inc()
				return
			}
			if _, err := w.Write(durable.MarshalRecord(seq, payload)); err != nil {
				return // follower went away
			}
			rc.Flush() // each record leaves now; a writer that cannot flush is not an error
		}
	}
}

func handleReplSnapshot(srv *Server, st *core.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f, err := os.Open(st.SnapshotPath())
		if os.IsNotExist(err) {
			http.Error(w, "no snapshot yet", http.StatusNotFound)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		replEpochHeaders(w, st)
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
		// The open fd pins the file's content even if a concurrent
		// snapshot renames a fresh one over the path mid-copy.
		io.Copy(w, f)
	}
}

// LeaderReplStatus is the JSON shape of /replication/status on a node
// that is not tailing anyone (a leader, or a promoted follower).
type LeaderReplStatus struct {
	Role     string `json:"role"`
	Epoch    uint64 `json:"epoch"`
	Fenced   bool   `json:"fenced"`
	LastSeq  uint64 `json:"last_seq"`
	LowWater uint64 `json:"follower_low_water_seq,omitempty"`
}

func handleReplStatus(srv *Server, st *core.Store, fo *core.Follower) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fo != nil {
			stat := fo.Status()
			if stat.Role == "follower" {
				srv.WriteJSON(w, stat)
				return
			}
			// Promoted: fall through to the leader shape.
		}
		out := LeaderReplStatus{
			Role: "leader", Epoch: st.Epoch(), Fenced: st.Fenced(), LastSeq: st.LastSeq(),
		}
		if lw, ok := st.FollowerLowWater(); ok {
			out.LowWater = lw
		}
		srv.WriteJSON(w, out)
	}
}

// FenceRequest is the POST /replication/fence body.
type FenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

func handleReplFence(srv *Server, st *core.Store) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req FenceRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<10)).Decode(&req); err != nil {
			http.Error(w, "invalid JSON body: "+err.Error(), http.StatusBadRequest)
			return
		}
		var fenced *durable.FencedError
		switch err := st.Fence(req.Epoch); {
		case errors.As(err, &fenced):
			// A stale fence (epoch not beyond ours) must not depose us.
			replEpochHeaders(w, st)
			http.Error(w, fenced.Error(), http.StatusConflict)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		replEpochHeaders(w, st)
		srv.WriteJSON(w, map[string]any{"fenced": true, "epoch": st.Epoch()})
	}
}

func handleReplPromote(srv *Server, fo *core.Follower) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		epoch, err := fo.Promote()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// The node now accepts writes and is unconditionally ready.
		srv.AllowWrites()
		srv.WriteJSON(w, map[string]any{"promoted": true, "epoch": epoch})
	}
}
