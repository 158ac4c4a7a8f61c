package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// NewPaper describes a paper to add to a built engine: its text, its
// ordered author list (rank 1 first), and optional venue, topics and
// citations. Authors, venue and topics must be existing nodes of the
// engine's graph.
type NewPaper struct {
	Text    string
	Authors []hetgraph.NodeID
	Venues  []hetgraph.NodeID // usually one; empty for venue-less papers
	Topics  []hetgraph.NodeID
	Cites   []hetgraph.NodeID
}

// InvalidUpdateError reports an update rejected during validation, with
// nothing applied; servers map it to a 400.
type InvalidUpdateError struct {
	Reason string
}

func (e *InvalidUpdateError) Error() string { return "core: invalid update: " + e.Reason }

// UpdateLogError reports that the write-ahead log refused to record an
// update. The update was NOT applied: acknowledging a mutation the log
// does not hold would make it vanish on restart, so the engine rejects
// it instead. Servers should answer 503 — durability is temporarily
// unavailable, the request itself may be fine.
type UpdateLogError struct {
	Err error
}

func (e *UpdateLogError) Error() string {
	return fmt.Sprintf("core: update rejected, write-ahead log append failed: %v", e.Err)
}

func (e *UpdateLogError) Unwrap() error { return e.Err }

// UpdateLog records an encoded update before it mutates the engine.
// *durable.WAL satisfies it directly.
type UpdateLog interface {
	Append(payload []byte) (seq uint64, err error)
}

// SetUpdateLog attaches a write-ahead log to the engine: from now on
// every AddPaper is recorded (and fsynced, per the log's policy) before
// it mutates any state, so an acknowledged update survives kill -9.
// Attach the log before serving; it must already be replayed.
func (e *Engine) SetUpdateLog(l UpdateLog) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wal = l
}

// LastUpdateSeq returns the WAL sequence of the most recent applied
// update (0 if none carried a sequence).
func (e *Engine) LastUpdateSeq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.walSeq
}

// AppliedUpdates returns how many online updates the engine has
// accepted since its offline build (journalled + replayed).
func (e *Engine) AppliedUpdates() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.updates)
}

// EncodeUpdate serialises an update for the write-ahead log.
func EncodeUpdate(p NewPaper) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("core: encode update: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeUpdate reverses EncodeUpdate for WAL replay.
func DecodeUpdate(b []byte) (NewPaper, error) {
	var p NewPaper
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&p); err != nil {
		return NewPaper{}, fmt.Errorf("core: decode update: %w", err)
	}
	return p, nil
}

// AddPaper appends a paper to the engine's graph, embeds it with the
// fine-tuned encoder, and inserts it into the PG-Index, making it
// immediately retrievable — the incremental path between offline rebuilds.
// The encoder is not retrained and the vocabulary is frozen: unseen words
// segment into subword pieces (or [UNK]), exactly as unseen query words
// do. It returns the new paper's node id.
//
// When an update log is attached (SetUpdateLog), the paper is recorded
// there after validation and before any mutation: by the time AddPaper
// returns, the update is as durable as the log's fsync policy promises,
// and a crash at any point either replays it fully or never
// acknowledged it. A log failure rejects the update with a typed
// *UpdateLogError instead of applying it unlogged.
//
// AddPaper is safe to call concurrently with queries: it holds the
// engine's write lock for the duration of the mutation and then
// invalidates the query cache, so a query started after AddPaper returns
// always sees the new paper and never a memoised pre-update ranking.
func (e *Engine) AddPaper(p NewPaper) (hetgraph.NodeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.validateNewPaper(p); err != nil {
		return 0, err
	}
	// update/log and update/apply split the time the write lock is held —
	// and every concurrent read waits — into the journal (encode, append,
	// fsync) and the mutation (tokenise, embed, insert).
	ctx, root := obs.StartSpan(obs.WithRegistry(context.Background(), e.reg), "update")
	defer root.End()
	var seq uint64
	if e.wal != nil {
		_, sp := obs.StartSpan(ctx, "log")
		payload, err := EncodeUpdate(p)
		if err == nil {
			if seq, err = e.wal.Append(payload); err != nil {
				err = &UpdateLogError{Err: err}
			}
		}
		sp.End()
		if err != nil {
			return 0, err
		}
	}
	_, sp := obs.StartSpan(ctx, "apply")
	defer sp.End()
	return e.applyUpdateLocked(p, seq)
}

// ApplyLogged applies an update replayed from the write-ahead log: the
// same mutation as AddPaper without re-logging it. seq is the record's
// WAL sequence, so snapshots taken later know what the engine covers.
func (e *Engine) ApplyLogged(p NewPaper, seq uint64) (hetgraph.NodeID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.validateNewPaper(p); err != nil {
		return 0, err
	}
	return e.applyUpdateLocked(p, seq)
}

// validateNewPaper checks every referenced node before anything
// mutates; callers hold e.mu.
func (e *Engine) validateNewPaper(p NewPaper) error {
	g := e.g
	if len(p.Authors) == 0 {
		return &InvalidUpdateError{Reason: "a paper needs at least one author"}
	}
	for _, a := range p.Authors {
		if err := expectType(g, a, hetgraph.Author); err != nil {
			return err
		}
	}
	for _, v := range p.Venues {
		if err := expectType(g, v, hetgraph.Venue); err != nil {
			return err
		}
	}
	for _, t := range p.Topics {
		if err := expectType(g, t, hetgraph.Topic); err != nil {
			return err
		}
	}
	for _, c := range p.Cites {
		if err := expectType(g, c, hetgraph.Paper); err != nil {
			return err
		}
	}
	return nil
}

// applyUpdateLocked performs the validated mutation: graph and journal
// (addToGraphLocked), then embedding and index. Caller holds e.mu for
// writing and has validated p.
func (e *Engine) applyUpdateLocked(p NewPaper, seq uint64) (hetgraph.NodeID, error) {
	id, err := e.addToGraphLocked(p)
	if err != nil {
		return 0, err
	}
	// New node ids only grow, so the insert keeps the rows ascending.
	if err := e.index.Insert(id, e.enc.EncodeTokens(e.cache[id])); err != nil {
		return 0, fmt.Errorf("core: index insert: %w", err)
	}
	e.viewRowsLocked()
	if seq > e.walSeq {
		e.walSeq = seq
	}
	return id, nil
}

// addToGraphLocked is the half of an update that a snapshot does not
// already hold, and so the whole of replaying a snapshot's journal: the
// paper node and its edges, its token-cache entry, the journal append and
// the update counter — no embedding, no index insert. Caller holds e.mu
// for writing (or owns the engine outright) and has validated p.
func (e *Engine) addToGraphLocked(p NewPaper) (hetgraph.NodeID, error) {
	g := e.g
	// From here on the graph mutates; invalidate even on a partial failure
	// so no cached ranking outlives a half-applied update.
	defer e.InvalidateQueryCache()
	id := g.AddNode(hetgraph.Paper, p.Text)
	for _, a := range p.Authors {
		if err := g.AddEdge(a, id, hetgraph.Write); err != nil {
			return 0, err
		}
	}
	for _, v := range p.Venues {
		if err := g.AddEdge(id, v, hetgraph.Publish); err != nil {
			return 0, err
		}
	}
	for _, t := range p.Topics {
		if err := g.AddEdge(id, t, hetgraph.Mention); err != nil {
			return 0, err
		}
	}
	for _, c := range p.Cites {
		if err := g.AddEdge(id, c, hetgraph.Cite); err != nil {
			return 0, err
		}
	}
	e.cache[id] = e.enc.Tokenizer().Tokenize(p.Text)
	e.updates = append(e.updates, p)
	e.reg.Counter("expertfind_updates_total", "Online papers added to a built engine.").Inc()
	return id, nil
}

func expectType(g *hetgraph.Graph, id hetgraph.NodeID, want hetgraph.NodeType) error {
	if id < 0 || int(id) >= g.NumNodes() {
		return &InvalidUpdateError{Reason: fmt.Sprintf("node %d out of range", id)}
	}
	if got := g.Type(id); got != want {
		return &InvalidUpdateError{Reason: fmt.Sprintf("node %d is a %s, want %s", id, got, want)}
	}
	return nil
}
