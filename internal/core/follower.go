package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// Replication wire protocol, shared between the leader's HTTP handlers
// (internal/serve) and the follower's client below. The stream body is
// raw WAL records in the on-disk format (durable.MarshalRecord), so the
// follower CRC-checks and appends the very bytes the leader logged.
const (
	// ReplWALPath streams WAL records: GET ?from=<seq>.
	ReplWALPath = "/replication/wal"
	// ReplSnapshotPath streams the leader's current snapshot file.
	ReplSnapshotPath = "/replication/snapshot"
	// ReplStatusPath reports replication state as JSON.
	ReplStatusPath = "/replication/status"
	// ReplFencePath deposes the receiving node: POST {"epoch": N}.
	ReplFencePath = "/replication/fence"
	// ReplPromotePath promotes the receiving follower to leader: POST.
	ReplPromotePath = "/replication/promote"

	// ReplEpochHeader carries a replication epoch in both directions: the
	// follower's epoch on requests (a higher one fences the leader), the
	// leader's on responses (a higher one is adopted by the follower).
	ReplEpochHeader = "X-Replication-Epoch"
	// ReplFollowerHeader identifies the follower on tail requests, for
	// low-water tracking.
	ReplFollowerHeader = "X-Replication-Follower"
	// ReplLastSeqHeader carries the leader's last WAL sequence at the
	// moment the response started, so the follower can compute lag.
	ReplLastSeqHeader = "X-Replication-Last-Seq"
)

// ErrBehindLeader reports a tail request the leader could not serve
// because the requested records were already compacted: the follower
// fell below the leader's truncation point (it was presumed dead past
// the follower TTL) and must re-bootstrap from a fresh snapshot.
var ErrBehindLeader = errors.New("core: follower fell behind leader's compacted WAL; re-bootstrap required")

// FollowerOptions configures OpenFollower. Zero values mean: 200ms
// poll, lag bound 0 (ready only when fully caught up at the last poll),
// SyncAlways WAL, process-wide metrics, no logging.
type FollowerOptions struct {
	// ID names this follower to the leader for low-water tracking.
	// Empty: derived from hostname and pid.
	ID string
	// PollInterval is the delay between tail polls once caught up.
	PollInterval time.Duration
	// MaxLag is the largest leader-minus-applied sequence distance at
	// which the follower still reports Ready.
	MaxLag uint64
	// Sync and SegmentBytes configure the follower's own WAL.
	Sync         durable.SyncPolicy
	SegmentBytes int64
	// Mmap selects how the snapshot's columnar section is materialised
	// (see LoadOptions.Mmap); zero value maps when the platform allows.
	Mmap colstore.Mode
	// Metrics receives replication metrics (nil: obs.Default()).
	Metrics *obs.Registry
	// Logger receives replication progress lines (nil: silent).
	Logger *slog.Logger
}

// Follower replicates a leader's store: it bootstraps from the leader's
// snapshot, tails the leader's WAL over HTTP, and applies each record
// log-before-apply exactly as the leader did, so at every moment its
// engine equals the leader's engine at some recent sequence. Queries
// are served from the local engine; writes are refused until Promote.
type Follower struct {
	store  *Store
	id     string
	leader string // base URL, e.g. http://10.0.0.1:7080
	opts   FollowerOptions
	log    *slog.Logger

	applies, reconnects, tears, promotions *obs.Counter
	lag, appliedSeq, caughtUp, bootstrap   *obs.Gauge

	mu        sync.Mutex
	applied   uint64 // last sequence logged and applied locally
	leaderSeq uint64 // leader's last sequence as of the last poll
	polled    bool   // at least one successful poll completed
	promoted  bool
	lastErr   error

	stop     chan struct{}
	stopOnce sync.Once
	tail     sync.WaitGroup // the tail loop, once Start has run it
}

// followerClient performs a follower's requests to its leader: the
// snapshot download and every tail poll.
var followerClient = &http.Client{Timeout: 2 * time.Minute}

// bootstrapTimeout bounds how long a fresh follower keeps retrying the
// initial snapshot download while the leader is unreachable or has no
// snapshot yet. Followers commonly start before or alongside their
// leader; dying on the first refused connection would make orderly fleet
// bring-up impossible.
const bootstrapTimeout = 2 * time.Minute

// OpenFollower opens (creating if needed) a follower store in dir,
// replicating leaderURL. A fresh directory bootstraps by downloading
// the leader's snapshot (CRC-validated before it replaces anything); a
// directory with prior state recovers locally — snapshot plus WAL
// replay — and resumes tailing from where it stopped, which is how a
// follower killed mid-catch-up converges after restart. g must be the
// same base graph the leader was built over.
//
// OpenFollower returns with the engine consistent; call Start to begin
// tailing.
func OpenFollower(dir string, g *hetgraph.Graph, leaderURL string, o FollowerOptions) (*Follower, error) {
	st := newStore(dir, StoreOptions{Metrics: o.Metrics, Logger: o.Logger})
	reg, log := st.reg, st.log
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	id := o.ID
	if id == "" {
		host, _ := os.Hostname()
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: open follower: %w", err)
	}

	f := &Follower{
		store: st, id: id, leader: leaderURL, opts: o, log: log,
		stop: make(chan struct{}),

		applies:    reg.Counter("expertfind_replication_records_applied_total", "WAL records received from the leader and applied."),
		reconnects: reg.Counter("expertfind_replication_reconnects_total", "Tail stream failures followed by a backoff and reconnect."),
		tears:      reg.Counter("expertfind_replication_stream_tears_total", "Tail streams cut mid-record (resumed from the applied prefix)."),
		promotions: reg.Counter("expertfind_replication_promotions_total", "Times this node was promoted from follower to leader."),
		lag:        reg.Gauge("expertfind_replication_lag_seq", "WAL sequences this follower trails its leader by."),
		appliedSeq: reg.Gauge("expertfind_replication_applied_seq", "Last WAL sequence this follower has applied."),
		caughtUp:   reg.Gauge("expertfind_replication_caught_up", "1 when the follower has applied everything the leader acknowledged."),
		bootstrap:  reg.Gauge("expertfind_replication_bootstrap_seconds", "Duration of the most recent follower snapshot bootstrap."),
	}
	// The same root span as a store's recovery, so a follower's stage
	// family is listed before its first query too.
	_, root := obs.StartSpan(obs.WithRegistry(context.Background(), reg), "recover")
	defer root.End()

	// Phase 1: obtain a snapshot — local if present, else the leader's.
	snapPath := st.SnapshotPath()
	var leaderEpoch uint64
	if _, err := os.Stat(snapPath); os.IsNotExist(err) {
		start := time.Now()
		ep, err := f.fetchSnapshotRetry(snapPath)
		if err != nil {
			return nil, err
		}
		leaderEpoch = ep
		f.bootstrap.Set(time.Since(start).Seconds())
		log.Info("follower_bootstrapped", "leader", leaderURL,
			"dur", time.Since(start).Round(time.Millisecond))
	} else if err != nil {
		return nil, fmt.Errorf("core: open follower: %w", err)
	}

	// Phase 2: load the snapshot and recover the local log over it,
	// exactly as a leader would — minus attaching the engine's update
	// log, because a follower's writes come only from replication.
	if err := st.loadSnapshot(g, o.Mmap); err != nil {
		return nil, err
	}
	e := st.engine
	wal, replayed, err := recoverLog(dir, e, durable.WALOptions{
		Sync: o.Sync, SegmentBytes: o.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	if leaderEpoch > 0 {
		if err := wal.AdoptEpoch(leaderEpoch); err != nil {
			wal.Close()
			e.CloseSnapshot()
			return nil, err
		}
	}
	st.recovered(wal, replayed, root)
	f.applied = wal.LastSeq()
	if f.applied == 0 {
		f.applied = e.LastUpdateSeq()
	}
	f.setGauges()
	log.Info("follower_recovered", "applied", f.applied,
		"replayed", replayed, "epoch", wal.Epoch())
	return f, nil
}

// fetchSnapshotRetry keeps trying the snapshot download until it
// succeeds or bootstrapTimeout elapses. A refused connection or a 404
// just means the leader is still booting (or has not snapshotted yet) —
// both routine during fleet bring-up, neither a reason to die.
func (f *Follower) fetchSnapshotRetry(path string) (uint64, error) {
	deadline := time.Now().Add(bootstrapTimeout)
	backoff := 100 * time.Millisecond
	for {
		epoch, err := f.fetchSnapshot(path)
		if err == nil {
			return epoch, nil
		}
		if time.Now().After(deadline) {
			return 0, err
		}
		f.log.Info("follower_bootstrap_retry", "err", err, "backoff", backoff)
		time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond)
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// fetchSnapshot downloads the leader's snapshot to path, validating every
// checksum before anything replaces path. Returns the
// leader's epoch as reported on the response.
func (f *Follower) fetchSnapshot(path string) (uint64, error) {
	resp, err := followerClient.Get(f.leader + ReplSnapshotPath)
	if err != nil {
		return 0, fmt.Errorf("core: bootstrap snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("core: bootstrap snapshot: leader answered %s", resp.Status)
	}
	epoch, _ := strconv.ParseUint(resp.Header.Get(ReplEpochHeader), 10, 64)
	err = durable.AtomicWriteTo(path, true, func(tmp *os.File) error {
		if _, err := io.Copy(tmp, resp.Body); err != nil {
			return err
		}
		// Validate every checksum — the section directory and each
		// segment — and the meta segment before the file is allowed to
		// become the snapshot: a torn download must fail here, not at
		// some later boot.
		return verifySnapshotFile(tmp.Name())
	})
	if err != nil {
		return 0, fmt.Errorf("core: bootstrap snapshot: %w", err)
	}
	return epoch, nil
}

// Store exposes the follower's store (engine, snapshots, epoch).
func (f *Follower) Store() *Store { return f.store }

// Engine returns the replicated engine for serving queries.
func (f *Follower) Engine() *Engine { return f.store.Engine() }

// Start launches the tail loop: poll the leader's WAL from the next
// needed sequence, apply what arrives, repeat — reconnecting with
// jittered exponential backoff on any failure. Call once.
func (f *Follower) Start() {
	f.tail.Add(1)
	go func() {
		defer f.tail.Done()
		f.run()
	}()
}

func (f *Follower) run() {
	const (
		backoffMin = 50 * time.Millisecond
		backoffMax = 5 * time.Second
	)
	backoff := backoffMin
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		n, err := f.streamOnce()
		f.mu.Lock()
		f.lastErr = err
		promoted := f.promoted
		f.mu.Unlock()
		if promoted {
			return
		}
		var wait time.Duration
		if err != nil {
			f.reconnects.Inc()
			f.log.Warn("follower_stream_error", "err", err.Error(),
				"backoff", backoff.Round(time.Millisecond))
			// Full jitter: uniform in (0, backoff], then grow the cap.
			wait = time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		} else {
			backoff = backoffMin
			if n == 0 {
				wait = f.opts.PollInterval // caught up; poll gently
			}
		}
		if wait > 0 {
			select {
			case <-f.stop:
				return
			case <-time.After(wait):
			}
		}
	}
}

// streamOnce performs one tail request and applies every record it
// carries, returning how many were applied. A stream cut mid-record is
// not an error — the applied prefix is kept and the next call resumes
// after it.
func (f *Follower) streamOnce() (int, error) {
	f.mu.Lock()
	from := f.applied + 1
	f.mu.Unlock()

	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s%s?from=%d", f.leader, ReplWALPath, from), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(ReplEpochHeader, strconv.FormatUint(f.store.Epoch(), 10))
	req.Header.Set(ReplFollowerHeader, f.id)
	resp, err := followerClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, ErrBehindLeader
	case http.StatusConflict:
		// The leader saw our (higher) epoch and fenced itself: it is
		// stale. Keep backing off; the operator re-points this follower
		// by restarting it with the new -leader.
		return 0, fmt.Errorf("core: tail rejected: leader is fenced below our epoch %d", f.store.Epoch())
	default:
		return 0, fmt.Errorf("core: tail request: leader answered %s", resp.Status)
	}

	// Epoch exchange: a newer leader epoch is adopted, an older one
	// rejected — a deposed leader must not feed us records.
	if leaderEpoch, perr := strconv.ParseUint(resp.Header.Get(ReplEpochHeader), 10, 64); perr == nil {
		if leaderEpoch < f.store.Epoch() {
			return 0, &durable.FencedError{Op: "tail", Epoch: f.store.Epoch()}
		}
		if leaderEpoch > f.store.Epoch() {
			if err := f.store.wal.AdoptEpoch(leaderEpoch); err != nil {
				return 0, err
			}
			f.store.setEpochGauge()
		}
	}
	if last, perr := strconv.ParseUint(resp.Header.Get(ReplLastSeqHeader), 10, 64); perr == nil {
		f.mu.Lock()
		f.leaderSeq = last
		f.mu.Unlock()
	}

	applied := 0
	rr := durable.NewRecordReader(resp.Body)
	for {
		seq, payload, err := rr.Next()
		if err == io.EOF {
			break // clean end of this batch
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			// Torn tail on the wire: keep the applied prefix, resume later.
			f.tears.Inc()
			break
		}
		if err != nil {
			return applied, err
		}
		if err := f.applyRecord(seq, payload); err != nil {
			return applied, err
		}
		applied++
	}
	f.mu.Lock()
	f.polled = true
	f.mu.Unlock()
	f.setGauges()
	return applied, nil
}

// applyRecord logs then applies one replicated record — the same
// log-before-apply order the leader used, so a crash between the two
// replays the record instead of losing it.
func (f *Follower) applyRecord(seq uint64, payload []byte) error {
	if err := f.store.wal.AppendReplicated(seq, payload); err != nil {
		return err
	}
	if err := f.store.engine.applyRecord(f.store.wal.Dir(), seq, payload); err != nil {
		return err
	}
	f.mu.Lock()
	f.applied = seq
	f.mu.Unlock()
	f.applies.Inc()
	return nil
}

func (f *Follower) lagLocked() uint64 {
	if f.leaderSeq <= f.applied {
		return 0
	}
	return f.leaderSeq - f.applied
}

// Ready reports whether the follower should serve reads: bootstrap and
// at least one poll completed, and lag within the configured bound.
func (f *Follower) Ready() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readyLocked()
}

func (f *Follower) readyLocked() bool {
	return f.promoted || f.polled && f.lagLocked() <= f.opts.MaxLag
}

// FollowerStatus is the JSON shape of /replication/status on a follower.
type FollowerStatus struct {
	Role      string `json:"role"`
	Leader    string `json:"leader"`
	Epoch     uint64 `json:"epoch"`
	Applied   uint64 `json:"applied_seq"`
	LeaderSeq uint64 `json:"leader_seq"`
	Lag       uint64 `json:"lag_seq"`
	CaughtUp  bool   `json:"caught_up"`
	Ready     bool   `json:"ready"`
	LastError string `json:"last_error,omitempty"`
}

// Status snapshots the follower's replication state, every field at one
// instant: CaughtUp (everything the leader acknowledged as of the last
// successful poll is applied) implies Lag == 0 and Ready.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	lag := f.lagLocked()
	st := FollowerStatus{
		Role: "follower", Leader: f.leader, Epoch: f.store.Epoch(),
		Applied: f.applied, LeaderSeq: f.leaderSeq, Lag: lag,
		CaughtUp: f.polled && lag == 0, Ready: f.readyLocked(),
	}
	if f.promoted {
		st.Role = "leader"
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// Promote turns the follower into a leader: the tail loop stops, the
// replication epoch is bumped (persisted before anything else), and the
// engine starts logging its own writes to the local WAL — which now
// extends the replicated sequence space under the new epoch. Returns
// the new epoch; the caller re-points surviving followers and fences
// the old leader if it is still reachable.
func (f *Follower) Promote() (uint64, error) {
	f.mu.Lock()
	if f.promoted {
		epoch := f.store.Epoch()
		f.mu.Unlock()
		return epoch, nil
	}
	f.promoted = true
	f.mu.Unlock()
	f.stopTail()
	epoch, err := f.store.wal.BumpEpoch()
	if err != nil {
		return 0, err
	}
	f.store.engine.SetUpdateLog(f.store.wal)
	f.store.setEpochGauge()
	f.promotions.Inc()
	f.log.Info("follower_promoted", "epoch", epoch, "applied", f.applied)
	return epoch, nil
}

// stopTail stops the tail loop, if Start ran it, and waits for it to exit.
func (f *Follower) stopTail() {
	f.stopOnce.Do(func() { close(f.stop) })
	f.tail.Wait()
}

// Close stops tailing and closes the store (final snapshot included).
func (f *Follower) Close() error {
	f.stopTail()
	return f.store.Close()
}

// setGauges publishes the follower's replication position.
func (f *Follower) setGauges() {
	f.mu.Lock()
	applied, leaderSeq, polled, lag := f.applied, f.leaderSeq, f.polled, f.lagLocked()
	f.mu.Unlock()
	f.lag.Set(float64(lag))
	f.appliedSeq.Set(float64(applied))
	f.caughtUp.Set(b2f(polled && leaderSeq <= applied))
}
