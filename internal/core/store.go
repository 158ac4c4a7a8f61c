package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"expertfind/internal/colstore"
	"expertfind/internal/durable"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// Store is the durable home of a live engine: a snapshot file holding
// the last checkpointed state and a write-ahead log holding every
// update accepted since. Opening a store recovers exactly the state
// that was acknowledged before the previous process died — snapshot
// first, then WAL replay — and attaches the log so new updates keep
// the invariant. Periodic snapshots bound replay time and let old WAL
// segments be reclaimed.
//
// Layout under Dir:
//
//	snapshot.efs   versioned, checksummed engine snapshot (atomic writes)
//	wal/           segmented write-ahead log of accepted updates
//
// Corrupt state is never served silently: a damaged snapshot or a
// damaged WAL interior aborts OpenStore with a typed error (see
// internal/durable); only a torn tail on the final WAL segment — the
// signature of a crash mid-append, by definition unacknowledged — is
// truncated and recovered past.
type Store struct {
	dir    string
	engine *Engine
	wal    *durable.WAL
	reg    *obs.Registry
	log    *slog.Logger
	info   RecoveryInfo

	mu       sync.Mutex // serialises Snapshot/Close
	closed   bool
	lastSnap time.Time

	stopLoop chan struct{}
	loopDone chan struct{}

	// followers tracks the last sequence each live replication follower
	// has applied, so Snapshot never truncates WAL records a follower
	// still needs. Entries expire after followerTTL without a report — a
	// dead follower must not pin the log forever.
	fmu         sync.Mutex
	followers   map[string]followerPos
	followerTTL time.Duration

	fences                                 *obs.Counter
	liveFollowers, lowWater, epoch, fenced *obs.Gauge
}

// newStore returns the store over dir before anything is recovered into
// it, recording into o.Metrics (obs.Default() when nil), where it creates
// its replication handles.
func newStore(dir string, o StoreOptions) *Store {
	reg, log := o.Metrics, o.Logger
	if reg == nil {
		reg = obs.Default()
	}
	if log == nil {
		log = obs.NopLogger()
	}
	if o.FollowerTTL <= 0 {
		o.FollowerTTL = DefaultFollowerTTL
	}
	return &Store{dir: dir, reg: reg, log: log,
		followers: make(map[string]followerPos), followerTTL: o.FollowerTTL,
		fences:        reg.Counter("expertfind_replication_fences_total", "Times this node's WAL was fenced by a newer replication epoch."),
		liveFollowers: reg.Gauge("expertfind_replication_followers", "Live replication followers tracked by this leader."),
		lowWater:      reg.Gauge("expertfind_replication_low_water_seq", "Lowest WAL sequence applied by any live follower."),
		epoch:         reg.Gauge("expertfind_replication_epoch", "Persisted replication epoch of this node's WAL."),
		fenced:        reg.Gauge("expertfind_replication_fenced", "1 when this node's WAL is fenced by a newer epoch."),
	}
}

// followerPos is one follower's replication position as last reported.
type followerPos struct {
	applied uint64    // last WAL sequence the follower has applied
	seen    time.Time // when it last reported
}

// DefaultFollowerTTL is how long a silent follower keeps holding back
// WAL truncation before it is presumed dead.
const DefaultFollowerTTL = 30 * time.Second

// StoreOptions configures OpenStore. Zero values mean: SyncAlways,
// 4 MiB WAL segments, the process-wide metrics registry, no logging.
type StoreOptions struct {
	// Sync is the WAL fsync policy; it decides what "acknowledged" buys
	// (see durable.SyncPolicy).
	Sync durable.SyncPolicy
	// SegmentBytes caps WAL segment size before rotation.
	SegmentBytes int64
	// Metrics receives recovery and snapshot metrics (nil: obs.Default()).
	Metrics *obs.Registry
	// Logger receives recovery progress lines (nil: silent).
	Logger *slog.Logger
	// FollowerTTL overrides how long a silent replication follower pins
	// WAL truncation (zero: DefaultFollowerTTL).
	FollowerTTL time.Duration
	// Mmap selects how the snapshot's columnar section is materialised
	// on recovery (see LoadOptions.Mmap): the zero value maps it when
	// the platform allows, ModeOff forces heap reads, ModeOn fails if
	// the mapping cannot be established.
	Mmap colstore.Mode
}

// RecoveryInfo reports what OpenStore or OpenFollower found and did.
type RecoveryInfo struct {
	// SnapshotLoaded is true when a snapshot file was restored (false:
	// the engine came from the build function). Always true on a
	// follower, whose engine is its leader's snapshot.
	SnapshotLoaded bool
	// SnapshotSeq is the WAL sequence the snapshot covered.
	SnapshotSeq uint64
	// SnapshotMapped is true when the loaded snapshot's columnar
	// section is mmap'd (engine state served from the page cache).
	SnapshotMapped bool
	// Replayed is the number of WAL records applied on top.
	Replayed int
	// TornWALTail reports a truncated partial record on the final WAL
	// segment — expected after a crash mid-append.
	TornWALTail bool
	// Duration is the wall time of the whole recovery.
	Duration time.Duration
}

// SnapshotFileName is the snapshot's name inside a store directory.
const SnapshotFileName = "snapshot.efs"

// OpenStore opens (creating if absent) the durable store in dir and
// recovers the engine: load the snapshot if one exists, otherwise run
// build (typically a fresh offline Build); then replay WAL records past
// the snapshot's sequence; then attach the WAL so subsequent AddPaper
// calls are logged before they apply. When the store is brand new an
// initial snapshot is written immediately, so a later restart never
// repeats the expensive build.
func OpenStore(dir string, g *hetgraph.Graph, build func() (*Engine, error), o StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: open store: %w", err)
	}
	s := newStore(dir, o)
	ctx, root := obs.StartSpan(obs.WithRegistry(context.Background(), s.reg), "recover")
	defer root.End() // on the error paths; recovery's own end is taken below

	// Phase 1: restore the checkpointed state.
	_, sp := obs.StartSpan(ctx, "snapshot")
	if err := s.loadSnapshot(g, o.Mmap); errors.Is(err, fs.ErrNotExist) {
		if s.engine, err = build(); err != nil {
			return nil, err
		}
		s.log.Info("store_built_fresh", "dir", dir)
	} else if err != nil {
		return nil, err // typed: checksum/truncation/version context intact
	}
	sp.End()

	// Phase 2: open the log (validating every record) and replay what
	// the snapshot does not cover.
	_, sp = obs.StartSpan(ctx, "wal_replay")
	wal, replayed, err := recoverLog(dir, s.engine, durable.WALOptions{
		Sync:         o.Sync,
		SegmentBytes: o.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	sp.End()
	s.engine.SetUpdateLog(wal)
	s.recovered(wal, replayed, root)

	// A fresh store checkpoints immediately: the build is deterministic
	// but expensive, and the next boot should not pay for it again.
	if !s.info.SnapshotLoaded {
		if err := s.Snapshot(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// loadSnapshot restores the engine from the store's snapshot file and
// records the load in Recovery(), the mmap gauge and the log. A store
// without a snapshot yet gets an error wrapping fs.ErrNotExist.
func (s *Store) loadSnapshot(g *hetgraph.Graph, mode colstore.Mode) error {
	path := s.SnapshotPath()
	st, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("core: open store: %w", err)
	}
	e, err := loadFile(path, g, mode, s.reg)
	if err != nil {
		return err
	}
	s.engine = e
	s.info.SnapshotLoaded = true
	s.info.SnapshotSeq = e.LastUpdateSeq()
	s.info.SnapshotMapped = e.SnapshotMapped()
	s.lastSnap = st.ModTime()
	s.reg.Gauge("expertfind_snapshot_mmap",
		"1 when the engine's columnar state is an mmap'd snapshot view.").
		Set(b2f(s.info.SnapshotMapped))
	s.log.Info("store_snapshot_loaded", "file", path,
		"seq", s.info.SnapshotSeq, "mmap", s.info.SnapshotMapped,
		"age", time.Since(st.ModTime()).Round(time.Second))
	return nil
}

// recovered attaches wal, the log recoverLog opened and replayed onto the
// store's engine, and records what recovery found — in Recovery(), the
// recovery counters and gauge, and the log — ending root, the recovery
// span. A leader's store and a follower's both finish here.
func (s *Store) recovered(wal *durable.WAL, replayed int, root *obs.Span) {
	s.wal = wal
	s.info.TornWALTail = wal.Stats().TornTail
	s.info.Replayed = replayed
	s.setEpochGauge()
	s.info.Duration = root.End()

	s.reg.Counter("expertfind_recovery_wal_records_replayed_total",
		"WAL records re-applied during store recovery.").Add(float64(s.info.Replayed))
	s.reg.Counter("expertfind_recovery_torn_wal_tails_total",
		"Torn WAL tails truncated during store recovery.").Add(b2f(s.info.TornWALTail))
	s.reg.Gauge("expertfind_recovery_seconds",
		"Duration of the most recent store recovery.").Set(s.info.Duration.Seconds())
	s.setSnapshotGauges()
	s.log.Info("store_recovered",
		"snapshot", s.info.SnapshotLoaded,
		"replayed", s.info.Replayed,
		"torn_tail", s.info.TornWALTail,
		"dur", s.info.Duration.Round(time.Millisecond))
}

// Engine returns the recovered engine. Updates through it are logged.
func (s *Store) Engine() *Engine { return s.engine }

// Recovery reports what OpenStore or OpenFollower found and did.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Snapshot checkpoints the live engine: it serialises the engine plus
// its update journal into one columnar section, atomically replaces
// the snapshot file (temp + fsync + rename), and only then truncates
// WAL segments the new snapshot covers. A crash at any point leaves
// either the old snapshot with its WAL or the new snapshot with a
// shorter one — both recover to the same state.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return durable.ErrClosed
	}
	start := time.Now()
	// Stream the snapshot straight into the temp file: a corpus-sized
	// engine must not be buffered in memory on the way out. Atomicity
	// is unchanged — temp + fsync + rename.
	path := filepath.Join(s.dir, SnapshotFileName)
	var seq uint64
	var nbytes int64
	err := durable.AtomicWriteTo(path, true, func(f *os.File) (err error) {
		if seq, err = s.engine.SaveSnapshot(f); err != nil {
			return err
		}
		nbytes, err = f.Seek(0, io.SeekCurrent)
		return err
	})
	if err != nil {
		return err
	}
	// Never truncate past a live follower: a follower that has applied
	// through sequence L still needs L+1, so reclamation stops at
	// min(snapshot seq, follower low-water).
	trunc := seq
	if lw, ok := s.FollowerLowWater(); ok && lw < trunc {
		trunc = lw
	}
	if err := s.wal.TruncateThrough(trunc); err != nil {
		return err
	}
	s.lastSnap = time.Now()
	s.reg.Counter("expertfind_snapshots_total", "Engine snapshots written.").Inc()
	s.reg.Gauge("expertfind_snapshot_bytes", "Size of the most recent snapshot.").
		Set(float64(nbytes))
	s.reg.Histogram("expertfind_snapshot_seconds",
		"Time to serialise and persist one snapshot.", nil).
		Observe(time.Since(start).Seconds())
	s.setSnapshotGauges()
	s.log.Info("store_snapshot_written", "file", path, "bytes", nbytes,
		"seq", seq, "dur", time.Since(start).Round(time.Millisecond))
	return nil
}

// StartSnapshotLoop checkpoints every interval until Close. Errors are
// logged and counted, not fatal — the WAL still holds everything, so a
// failed snapshot costs replay time, not data.
func (s *Store) StartSnapshotLoop(interval time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.stopLoop != nil || interval <= 0 {
		return
	}
	s.stopLoop = make(chan struct{})
	s.loopDone = make(chan struct{})
	go s.snapshotLoop(interval, s.stopLoop, s.loopDone)
}

func (s *Store) snapshotLoop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.Snapshot(); err != nil {
				s.reg.Counter("expertfind_snapshot_failures_total",
					"Periodic snapshots that failed.").Inc()
				s.log.Error("store_snapshot_failed", "err", err.Error())
			}
		}
	}
}

// Close writes a final snapshot, then flushes and closes the WAL. The
// store is unusable afterwards. Safe to call twice.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	stop, done := s.stopLoop, s.loopDone
	s.stopLoop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	err := s.Snapshot()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// setSnapshotGauges publishes snapshot freshness; callers hold s.mu or
// run before the store is shared.
func (s *Store) setSnapshotGauges() {
	if s.lastSnap.IsZero() {
		return
	}
	s.reg.Gauge("expertfind_snapshot_last_unix_seconds",
		"Unix time of the most recent snapshot.").Set(float64(s.lastSnap.Unix()))
	s.reg.Gauge("expertfind_snapshot_age_seconds",
		"Age of the most recent snapshot at the last store event.").
		Set(time.Since(s.lastSnap).Seconds())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recoverLog opens the write-ahead log under dir and replays onto e, the
// engine recovered from dir's snapshot (or built fresh), every record the
// snapshot does not cover — the recovery a leader and a follower share.
// A log with no segments yet starts right after the snapshot's sequence,
// so a follower's records line up with its leader's. On failure nothing
// stays open: the log is closed and e's snapshot mapping released.
func recoverLog(dir string, e *Engine, o durable.WALOptions) (wal *durable.WAL, replayed int, err error) {
	after := e.LastUpdateSeq()
	o.InitialSeq = after + 1
	wal, err = durable.OpenWAL(filepath.Join(dir, "wal"), o)
	if err != nil {
		e.CloseSnapshot()
		return nil, 0, err
	}
	err = wal.Replay(after, func(seq uint64, payload []byte) error {
		replayed++
		return e.applyRecord(wal.Dir(), seq, payload)
	})
	if err != nil {
		wal.Close()
		e.CloseSnapshot()
		return nil, 0, err
	}
	return wal, replayed, nil
}

// applyRecord decodes one WAL record's payload and applies it under the
// record's sequence; dir names the log holding the record in the error.
func (e *Engine) applyRecord(dir string, seq uint64, payload []byte) error {
	p, err := decodeUpdate(payload)
	if err != nil {
		return &durable.CorruptError{Path: dir, Offset: 0,
			Detail: fmt.Sprintf("update record seq %d", seq), Err: err}
	}
	if _, err := e.applyLogged(p, seq); err != nil {
		return fmt.Errorf("core: apply of update seq %d failed: %w", seq, err)
	}
	return nil
}

// SnapshotPath returns the snapshot file's path inside the store.
func (s *Store) SnapshotPath() string { return filepath.Join(s.dir, SnapshotFileName) }

// LastSeq returns the WAL's most recent sequence (0 when empty).
func (s *Store) LastSeq() uint64 { return s.wal.LastSeq() }

// Epoch returns the store's persisted replication epoch.
func (s *Store) Epoch() uint64 { return s.wal.Epoch() }

// Fenced reports whether the store's WAL is fenced by a newer epoch.
func (s *Store) Fenced() bool { return s.wal.Fenced() }

// Fence deposes this store at the given (strictly newer) epoch; see
// durable.WAL.Fence. A fenced leader rejects all further writes.
func (s *Store) Fence(epoch uint64) error {
	err := s.wal.Fence(epoch)
	if err == nil {
		s.fences.Inc()
		s.setEpochGauge()
		s.log.Info("store_fenced", "epoch", epoch)
	}
	return err
}

// ReadWALFrom streams this store's log from a sequence; see
// durable.WAL.ReadFrom.
func (s *Store) ReadWALFrom(from uint64) (*durable.WALIterator, error) {
	return s.wal.ReadFrom(from)
}

// ObserveFollower records a follower's replication position: it has
// applied every sequence up to and including applied. The report pins
// WAL truncation (see Snapshot) until the follower goes silent for the
// store's follower TTL.
func (s *Store) ObserveFollower(id string, applied uint64) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.followers[id] = followerPos{applied: applied, seen: time.Now()}
}

// FollowerLowWater returns the lowest applied sequence among live
// followers, and whether any follower is live at all. Expired entries
// are dropped as a side effect.
func (s *Store) FollowerLowWater() (uint64, bool) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	now := time.Now()
	low, ok := uint64(0), false
	for id, p := range s.followers {
		if now.Sub(p.seen) > s.followerTTL {
			delete(s.followers, id)
			continue
		}
		if !ok || p.applied < low {
			low, ok = p.applied, true
		}
	}
	s.liveFollowers.Set(float64(len(s.followers)))
	if ok {
		s.lowWater.Set(float64(low))
	}
	return low, ok
}

// setEpochGauge publishes the replication epoch and fence state.
func (s *Store) setEpochGauge() {
	s.epoch.Set(float64(s.wal.Epoch()))
	s.fenced.Set(b2f(s.wal.Fenced()))
}
