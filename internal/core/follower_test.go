package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"expertfind/internal/obs"
)

// openLocalFollower opens a follower over dir, which already holds a
// store's snapshot, so nothing is fetched from the leader — whose URL
// names a port nothing listens on.
func openLocalFollower(t *testing.T, dir string, reg *obs.Registry) *Follower {
	t.Helper()
	ds, _ := storeFixture()
	f, err := OpenFollower(dir, ds.Graph, "http://127.0.0.1:1", FollowerOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return f
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

// TestFollowerStopsWithoutStart: a follower whose tail loop never ran can
// still be closed, and promoted, at once.
func TestFollowerStopsWithoutStart(t *testing.T) {
	dir := t.TempDir()
	st, _ := openTestStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f := openLocalFollower(t, dir, obs.NewRegistry())
	returnsWithin(t, "Close of an unstarted follower", 3*time.Second, f.Close)

	f = openLocalFollower(t, dir, obs.NewRegistry())
	returnsWithin(t, "Promote of an unstarted follower", 3*time.Second, func() error {
		epoch, err := f.Promote()
		if err == nil && epoch != 1 {
			t.Errorf("promoted to epoch %d, want 1", epoch)
		}
		return err
	})
	returnsWithin(t, "Close of a promoted follower", 3*time.Second, f.Close)
}

// TestFollowerReportsRecoveryLikeStore: a follower reopened over a WAL
// with a torn tail reports what its recovery replayed and truncated, in
// Recovery() and in the recovery metrics, as a leader's store does.
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
	f := openLocalFollower(t, dir, reg)
	defer f.Close()
	rec := f.Store().Recovery()
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
}
