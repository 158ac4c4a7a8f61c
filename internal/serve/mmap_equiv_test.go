package serve

import (
	"strconv"
	"testing"
	"time"

	"expertfind/internal/colstore"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/obs"
)

// startMmapFollower is startReplFollower with an explicit mmap mode:
// the follower bootstraps from the leader's snapshot and materialises
// its columnar section the chosen way.
func startMmapFollower(t *testing.T, leaderURL string, mode colstore.Mode) *replFollower {
	t.Helper()
	g := dataset.Generate(dataset.AminerSim(replCorpus)).Graph
	reg := obs.NewRegistry()
	fo, err := core.OpenStore(t.TempDir(), g, nil, core.StoreOptions{
		Leader: leaderURL, FollowerID: "mmap-follower-" + strconv.Itoa(int(mode)),
		PollInterval: 10 * time.Millisecond, Mmap: mode, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fo.Close() })
	return &replFollower{fo: fo, reg: reg}
}

// TestMmapEquivalenceFollower is the replication leg of the mmap
// acceptance suite: a follower that bootstraps onto the leader's
// snapshot with the columnar section mmap'd must converge to rankings
// Float64bits-identical to the leader and to a heap-decoded follower of
// the same leader — replicated updates land on the heap, never in the
// read-only mapping.
func TestMmapEquivalenceFollower(t *testing.T) {
	ld := startReplLeader(t, 0, 0)
	addPapers(t, ld.store.Engine(), 0, 6)
	// Snapshot now, so the bootstrap snapshot itself carries a columnar
	// section with journalled updates in it.
	if err := ld.store.Snapshot(); err != nil {
		t.Fatal(err)
	}

	mapped := startMmapFollower(t, ld.ts.URL, colstore.ModeOn)
	heap := startMmapFollower(t, ld.ts.URL, colstore.ModeOff)
	if !mapped.fo.Engine().SnapshotMapped() {
		t.Fatal("ModeOn follower did not map its bootstrap snapshot")
	}
	if heap.fo.Engine().SnapshotMapped() {
		t.Fatal("ModeOff follower reports a mapped snapshot")
	}

	waitApplied(t, mapped.fo, 6)
	waitApplied(t, heap.fo, 6)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), mapped.fo.Engine())
	assertEnginesEqual(t, ld.ds, heap.fo.Engine(), mapped.fo.Engine())

	// Writes issued while both followers tail replicate onto the mapped
	// matrix's heap extension and stay bit-identical.
	addPapers(t, ld.store.Engine(), 6, 5)
	waitApplied(t, mapped.fo, 11)
	waitApplied(t, heap.fo, 11)
	assertEnginesEqual(t, ld.ds, ld.store.Engine(), mapped.fo.Engine())
	assertEnginesEqual(t, ld.ds, heap.fo.Engine(), mapped.fo.Engine())
}
