package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/durable"
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
// the follower TTL): no retry can fetch them, so the tail stops.
var ErrBehindLeader = errors.New("core: follower fell behind leader's compacted WAL; " +
	"restart it with an empty -data-dir to bootstrap from the leader's snapshot")

// ErrReadOnly is the refusal a following store's engine gives every
// AddPaper, wrapped in *UpdateLogError, before anything changes: its
// updates come only from its leader's log, until Promote.
var ErrReadOnly = errors.New("core: a following store takes writes only from its leader's log")

// tail is a following store's replication state: its leader, how far
// it has applied the leader's log, and the loop that tails it. A store
// that leads has none.
type tail struct {
	leader string // base URL, e.g. http://10.0.0.1:7080
	id     string // names this follower to the leader
	poll   time.Duration
	maxLag uint64

	applies, reconnects, tears, promotions *obs.Counter
	lag, appliedSeq, caughtUp, bootstrap   *obs.Gauge

	mu        sync.Mutex
	applied   uint64 // last sequence logged and applied locally
	leaderSeq uint64 // leader's last sequence as of the last poll
	polled    bool   // at least one successful poll completed
	promoted  bool
	lastErr   error

	ctx    context.Context // cancelled to stop the loop and its request
	cancel context.CancelFunc
	done   chan struct{} // closed when the loop has exited
}

// newTail returns the replication state of a store following o.Leader,
// with its handles in reg. Zero options mean: a 200ms poll, ready only
// when fully caught up at the last poll, an id from hostname and pid.
func newTail(o StoreOptions, reg *obs.Registry) *tail {
	if o.PollInterval <= 0 {
		o.PollInterval = 200 * time.Millisecond
	}
	if o.FollowerID == "" {
		host, _ := os.Hostname()
		o.FollowerID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &tail{
		leader: o.Leader, id: o.FollowerID, poll: o.PollInterval, maxLag: o.MaxLag,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),

		applies:    reg.Counter("expertfind_replication_records_applied_total", "WAL records received from the leader and applied."),
		reconnects: reg.Counter("expertfind_replication_reconnects_total", "Tail stream failures followed by a backoff and reconnect."),
		tears:      reg.Counter("expertfind_replication_stream_tears_total", "Tail streams cut mid-record (resumed from the applied prefix)."),
		promotions: reg.Counter("expertfind_replication_promotions_total", "Times this node was promoted from follower to leader."),
		lag:        reg.Gauge("expertfind_replication_lag_seq", "WAL sequences this follower trails its leader by."),
		appliedSeq: reg.Gauge("expertfind_replication_applied_seq", "Last WAL sequence this follower has applied."),
		caughtUp:   reg.Gauge("expertfind_replication_caught_up", "1 when the follower has applied everything the leader acknowledged."),
		bootstrap:  reg.Gauge("expertfind_replication_bootstrap_seconds", "Duration of the most recent follower snapshot bootstrap."),
	}
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

// bootstrap downloads the leader's snapshot into the store's fresh
// directory, retrying until it succeeds or bootstrapTimeout elapses: a
// refused connection or a 404 just means the leader is still booting
// (or has not snapshotted yet), both routine during fleet bring-up.
// Returns the leader's epoch as its response reported it.
func (s *Store) bootstrap() (uint64, error) {
	t := s.tail
	start := time.Now()
	deadline := start.Add(bootstrapTimeout)
	backoff := 100 * time.Millisecond
	for {
		epoch, err := t.fetchSnapshot(s.SnapshotPath())
		if err == nil {
			t.bootstrap.Set(time.Since(start).Seconds())
			s.log.Info("follower_bootstrapped", "leader", t.leader,
				"dur", time.Since(start).Round(time.Millisecond))
			return epoch, nil
		}
		if time.Now().After(deadline) {
			return 0, err
		}
		s.log.Info("follower_bootstrap_retry", "err", err, "backoff", backoff)
		time.Sleep(time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond)
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// fetchSnapshot downloads the leader's snapshot to path, validating every
// checksum before anything replaces path. Returns the
// leader's epoch as reported on the response.
func (t *tail) fetchSnapshot(path string) (uint64, error) {
	resp, err := followerClient.Get(t.leader + ReplSnapshotPath)
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

// runTail polls the leader's WAL from the next needed sequence, applies
// what arrives, and repeats — reconnecting with jittered exponential
// backoff on any failure — until the tail is stopped or ErrBehindLeader.
func (s *Store) runTail() {
	const (
		backoffMin = 50 * time.Millisecond
		backoffMax = 5 * time.Second
	)
	t := s.tail
	defer close(t.done)
	backoff := backoffMin
	for t.ctx.Err() == nil {
		n, err := s.streamOnce()
		if t.ctx.Err() != nil {
			return // stopped mid-request: not a stream failure
		}
		t.mu.Lock()
		t.lastErr = err
		t.mu.Unlock()
		if errors.Is(err, ErrBehindLeader) {
			s.log.Error("follower_behind_leader", "err", err.Error(), "applied", t.applied)
			return
		}
		var wait time.Duration
		if err != nil {
			t.reconnects.Inc()
			s.log.Warn("follower_stream_error", "err", err.Error(),
				"backoff", backoff.Round(time.Millisecond))
			// Full jitter: uniform in (0, backoff], then grow the cap.
			wait = time.Duration(rand.Int63n(int64(backoff))) + time.Millisecond
			if backoff *= 2; backoff > backoffMax {
				backoff = backoffMax
			}
		} else {
			backoff = backoffMin
			if n == 0 {
				wait = t.poll // caught up; poll gently
			}
		}
		if wait > 0 {
			select {
			case <-t.ctx.Done():
			case <-time.After(wait):
			}
		}
	}
}

// streamOnce performs one tail request and applies every record it
// carries, returning how many were applied. A stream cut mid-record is
// not an error — the applied prefix is kept and the next call resumes
// after it.
func (s *Store) streamOnce() (int, error) {
	t := s.tail
	t.mu.Lock()
	from := t.applied + 1
	t.mu.Unlock()

	req, err := http.NewRequestWithContext(t.ctx, http.MethodGet,
		fmt.Sprintf("%s%s?from=%d", t.leader, ReplWALPath, from), nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set(ReplEpochHeader, strconv.FormatUint(s.Epoch(), 10))
	req.Header.Set(ReplFollowerHeader, t.id)
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
		return 0, fmt.Errorf("core: tail rejected: leader is fenced below our epoch %d", s.Epoch())
	default:
		return 0, fmt.Errorf("core: tail request: leader answered %s", resp.Status)
	}

	// Epoch exchange: a newer leader epoch is adopted, an older one
	// rejected — a deposed leader must not feed us records.
	if leaderEpoch, perr := strconv.ParseUint(resp.Header.Get(ReplEpochHeader), 10, 64); perr == nil {
		if leaderEpoch < s.Epoch() {
			return 0, &durable.FencedError{Op: "tail", Epoch: s.Epoch()}
		}
		if leaderEpoch > s.Epoch() {
			if err := s.wal.AdoptEpoch(leaderEpoch); err != nil {
				return 0, err
			}
			s.setEpochGauge()
		}
	}
	if last, perr := strconv.ParseUint(resp.Header.Get(ReplLastSeqHeader), 10, 64); perr == nil {
		t.mu.Lock()
		t.leaderSeq = last
		t.mu.Unlock()
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
			t.tears.Inc()
			break
		}
		if err != nil {
			return applied, err
		}
		// Log, then apply: the order the leader used, so a crash between
		// the two replays the record instead of losing it.
		if err := s.wal.AppendReplicated(seq, payload); err != nil {
			return applied, err
		}
		if err := s.engine.applyRecord(s.wal.Dir(), seq, payload); err != nil {
			return applied, err
		}
		t.mu.Lock()
		t.applied = seq
		t.mu.Unlock()
		t.applies.Inc()
		applied++
	}
	t.mu.Lock()
	t.polled = true
	t.mu.Unlock()
	t.setGauges()
	return applied, nil
}

func (t *tail) lagLocked() uint64 {
	if t.leaderSeq <= t.applied {
		return 0
	}
	return t.leaderSeq - t.applied
}

// readyLocked reports whether the store should serve reads: bootstrap
// and at least one poll completed, lag within the configured bound, the
// tail not stopped.
func (t *tail) readyLocked() bool {
	return t.promoted || t.polled && t.lagLocked() <= t.maxLag && !errors.Is(t.lastErr, ErrBehindLeader)
}

// setGauges publishes the follower's replication position.
func (t *tail) setGauges() {
	t.mu.Lock()
	applied, leaderSeq, polled, lag := t.applied, t.leaderSeq, t.polled, t.lagLocked()
	t.mu.Unlock()
	t.lag.Set(float64(lag))
	t.appliedSeq.Set(float64(applied))
	t.caughtUp.Set(b2f(polled && leaderSeq <= applied))
}

// ReplStatus is a node's replication state, the body of
// /replication/status. A leader has applied its whole log: its applied
// and leader sequences are its last one, and it is caught up and ready.
// A following store names its leader and reports its tail's position.
type ReplStatus struct {
	Role      string `json:"role"` // "leader" or "follower"
	Leader    string `json:"leader,omitempty"`
	Epoch     uint64 `json:"epoch"`
	Fenced    bool   `json:"fenced"`
	LastSeq   uint64 `json:"last_seq"`
	LowWater  uint64 `json:"follower_low_water_seq,omitempty"`
	Applied   uint64 `json:"applied_seq"`
	LeaderSeq uint64 `json:"leader_seq"`
	Lag       uint64 `json:"lag_seq"`
	CaughtUp  bool   `json:"caught_up"`
	Ready     bool   `json:"ready"`
	LastError string `json:"last_error,omitempty"`
}

// Status reports the store's replication state: Role is "follower"
// while the store follows a leader, until Promote. A following store's
// position is read at one instant: CaughtUp (everything the leader
// acknowledged as of the last successful poll is applied) implies
// Lag == 0 and Ready.
func (s *Store) Status() ReplStatus {
	st := ReplStatus{Role: "leader", Epoch: s.Epoch(), Fenced: s.Fenced(),
		LastSeq: s.LastSeq(), CaughtUp: true, Ready: true}
	st.LowWater, _ = s.followerLowWater()
	st.Applied, st.LeaderSeq = st.LastSeq, st.LastSeq
	t := s.tail
	if t == nil {
		return st
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.promoted {
		return st
	}
	st.Role, st.Leader = "follower", t.leader
	st.Applied, st.LeaderSeq, st.Lag = t.applied, t.leaderSeq, t.lagLocked()
	st.CaughtUp = t.polled && st.Lag == 0
	st.Ready = t.readyLocked()
	if t.lastErr != nil {
		st.LastError = t.lastErr.Error()
	}
	return st
}

// Promote turns a following store into a leader: the tail loop stops,
// the replication epoch is bumped (persisted before anything else), and
// the engine starts logging its own writes to the local WAL — which now
// extends the replicated sequence space under the new epoch. Returns
// the new epoch; the caller re-points surviving followers and fences
// the old leader if it is still reachable. A store that already leads
// returns its epoch unchanged.
func (s *Store) Promote() (uint64, error) {
	t := s.tail
	if t == nil {
		return s.Epoch(), nil
	}
	t.mu.Lock()
	if t.promoted {
		t.mu.Unlock()
		return s.Epoch(), nil
	}
	t.promoted = true
	t.mu.Unlock()
	t.cancel() // the loop's request in flight too
	<-t.done
	epoch, err := s.wal.BumpEpoch()
	if err != nil {
		return 0, err
	}
	s.engine.SetUpdateLog(s.wal)
	s.setEpochGauge()
	t.promotions.Inc()
	s.log.Info("follower_promoted", "epoch", epoch, "applied", t.applied)
	return epoch, nil
}
