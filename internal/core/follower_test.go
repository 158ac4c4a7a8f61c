package core

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
)

// openLocalFollower opens a store over dir, which already holds a
// leader's snapshot, following leaderURL: nothing is fetched at open, and
// the tail polls leaderURL from then on.
func openLocalFollower(t *testing.T, dir, leaderURL string, reg *obs.Registry) *Store {
	t.Helper()
	ds, mk := storeFixture()
	st, err := OpenStore(dir, ds.Graph, mk(ds.Graph),
		StoreOptions{Metrics: reg, Leader: leaderURL, PollInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// returnsWithin fails the test if op has not returned after d.
func returnsWithin(t *testing.T, what string, d time.Duration, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v", what, d)
	}
}

// TestFollowerStopsBeforeReachingLeader: a following store whose tail
// never reached its leader — none listens at the address, or one accepts
// the request and never answers — can still be closed, and promoted, at
// once.
func TestFollowerStopsBeforeReachingLeader(t *testing.T) {
	hung := make(chan struct{})
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-hung:
		case <-r.Context().Done():
		}
	}))
	defer silent.Close()
	defer close(hung)

	for _, leader := range []string{"http://127.0.0.1:1", silent.URL} {
		dir := closedStoreDir(t)
		f := openLocalFollower(t, dir, leader, obs.NewRegistry())
		time.Sleep(30 * time.Millisecond) // let the tail reach its request
		returnsWithin(t, "Close of a follower that never reached "+leader, 3*time.Second, f.Close)

		f = openLocalFollower(t, dir, leader, obs.NewRegistry())
		time.Sleep(30 * time.Millisecond)
		returnsWithin(t, "Promote of a follower that never reached "+leader, 3*time.Second, func() error {
			epoch, err := f.Promote()
			if err == nil && epoch != 1 {
				t.Errorf("promoted to epoch %d, want 1", epoch)
			}
			return err
		})
		returnsWithin(t, "Close of a promoted follower", 3*time.Second, f.Close)
	}
}

// closedStoreDir returns a directory holding a closed store's snapshot,
// for a follower to open without fetching anything.
func closedStoreDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFollowerRefusesWritesUntilPromoted: a following store's engine
// refuses AddPaper with ErrReadOnly before anything changes — the graph,
// the index, the journal and the WAL stay as they were, so the next
// replicated record gets the node id it has on the leader. Promote
// attaches the store's own WAL and writes are logged from then on.
func TestFollowerRefusesWritesUntilPromoted(t *testing.T) {
	f := openLocalFollower(t, closedStoreDir(t), "http://127.0.0.1:1", obs.NewRegistry())
	defer f.Close()
	e := f.Engine()
	papers, rows, journal := e.Graph().NumNodesOfType(hetgraph.Paper), e.Index().Len(), len(e.updates)
	authors := e.Graph().NodesOfType(hetgraph.Author)
	p := NewPaper{Text: "an unlogged write", Authors: authors[:2]}

	_, err := e.AddPaper(p)
	var logErr *UpdateLogError
	if !errors.Is(err, ErrReadOnly) || !errors.As(err, &logErr) {
		t.Fatalf("follower AddPaper: got %v, want *UpdateLogError wrapping ErrReadOnly", err)
	}
	if got := e.Graph().NumNodesOfType(hetgraph.Paper); got != papers {
		t.Errorf("refused write changed the graph: %d papers, want %d", got, papers)
	}
	if got := e.Index().Len(); got != rows {
		t.Errorf("refused write changed the index: %d rows, want %d", got, rows)
	}
	if got := len(e.updates); got != journal {
		t.Errorf("refused write reached the journal: %d updates, want %d", got, journal)
	}
	if got := f.LastSeq(); got != 0 {
		t.Errorf("refused write reached the WAL: seq %d, want 0", got)
	}

	if _, err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AddPaper(p); err != nil {
		t.Fatalf("promoted AddPaper: %v", err)
	}
	if got := f.LastSeq(); got != 1 {
		t.Errorf("promoted write: WAL seq %d, want 1", got)
	}
}

// TestFollowerReportsRecoveryLikeStore: a follower reopened over a WAL
// with a torn tail runs a store's recovery — the same spans, and what it
// replayed and truncated in Recovery() and in the recovery metrics.
func TestFollowerReportsRecoveryLikeStore(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	addTestPapers(t, st.Engine(), 3)
	// Crash without Close, then a torn half-record at the tail.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments: %v", err)
	}
	tail, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Write([]byte("PARTIAL")); err != nil { // 7 bytes < record header
		t.Fatal(err)
	}
	tail.Close()

	reg := obs.NewRegistry()
	f := openLocalFollower(t, dir, "http://127.0.0.1:1", reg)
	defer f.Close()
	rec := f.Recovery()
	if !rec.SnapshotLoaded || rec.Replayed != 3 || !rec.TornWALTail || rec.Duration <= 0 {
		t.Errorf("follower recovery = %+v, want a loaded snapshot, 3 replayed and a torn tail", rec)
	}
	for name, want := range map[string]float64{
		"expertfind_recovery_wal_records_replayed_total": 3,
		"expertfind_recovery_torn_wal_tails_total":       1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Gauge("expertfind_recovery_seconds", "").Value(); got != rec.Duration.Seconds() {
		t.Errorf("expertfind_recovery_seconds = %v, want %v", got, rec.Duration.Seconds())
	}
	for _, stage := range []string{"recover", "recover/snapshot", "recover/wal_replay"} {
		if got := reg.Histogram("expertfind_stage_seconds", "", nil, obs.L("stage", stage)).Count(); got != 1 {
			t.Errorf("expertfind_stage_seconds{stage=%q} count = %d, want 1", stage, got)
		}
	}
}
