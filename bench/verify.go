package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"

	"expertfind/internal/core"
	"expertfind/internal/hetgraph"
	"expertfind/internal/metrics"
	"expertfind/internal/obs"
	"expertfind/internal/pgindex"
	"expertfind/internal/ta"
)

// verifyFresh checks the freshly built engine before any write touches
// it: ranking quality against the planted truth, recall against the exact
// scan, answers against the naive reference where retrieval is exact, and
// the size of its snapshot. All of it is untimed and none of it depends
// on the workload seed, so the numbers repeat exactly. It returns the
// path of the snapshot.
func (e *env) verifyFresh() (string, error) {
	s := e.spec
	e.quality = e.ds.Queries(qualityN, rand.New(rand.NewSource(qualitySeed)))
	digest := fnv.New64a()
	var aps, p10s []float64
	answers := make([][]ta.Ranking, len(e.quality))
	failed := 0
	for i, q := range e.quality {
		ranks, _, err := e.eng.TopExperts(q.Text, topM, topN)
		if err != nil || !wellFormed(ranks) {
			failed++
			continue
		}
		answers[i] = ranks
		ids := make([]hetgraph.NodeID, len(ranks))
		for i, r := range ranks {
			ids[i] = r.Expert
			fmt.Fprintf(digest, "%d:%x;", r.Expert, math.Float64bits(r.Score))
		}
		aps = append(aps, metrics.AveragePrecision(ids, q.Truth))
		p10s = append(p10s, metrics.PrecisionAtN(ids, q.Truth, 10))
	}
	e.check("quality query answered with 20 sorted experts", len(e.quality), failed)
	mapAt20, pAt10 := metrics.MAP(aps), mean(p10s)
	e.e2e.set("map_at_20", mapAt20)
	e.e2e.set("p_at_10", pAt10)
	e.res.Counts["ranking_digest"] = fmt.Sprintf("%016x", digest.Sum64())
	below := 0
	if mapAt20 < s.mapFloor {
		below++
	}
	if pAt10 < s.p10Floor {
		below++
	}
	e.check(fmt.Sprintf("quality above its floor (map_at_20 %.3f >= %.2f, p_at_10 %.3f >= %.2f)",
		mapAt20, s.mapFloor, pAt10, s.p10Floor), 2, below)

	recall := 1.0
	if e.eng.Index() != nil {
		var rs []float64
		for _, q := range e.quality[:min(recallN, len(e.quality))] {
			got, _, err := e.eng.RetrievePapers(q.Text, topM)
			if err != nil {
				return "", err
			}
			want := pgindex.BruteForce(e.eng.Embeddings, e.eng.EncodeQuery(q.Text), topM)
			rs = append(rs, overlap(got, want))
		}
		recall = mean(rs)
	}
	e.e2e.set("recall_at_m", recall)

	if e.eng.Index() == nil {
		// Retrieval is the exact scan, so a naive reference must agree.
		failed = 0
		n := min(referenceN, len(e.quality))
		for i, q := range e.quality[:n] {
			if !sameRanking(answers[i], referenceTopExperts(e.eng, q.Text, e.cfg.corruptReference)) {
				failed++
			}
		}
		e.check("answer equals the naive reference bit for bit", n, failed)
	}

	path := filepath.Join(e.dir, "fresh.efs")
	var size int64
	var err error
	save := e.rec.timed("core.save", -1, -1, func() { size, err = saveSnapshot(e.eng, path) })
	if err != nil {
		return "", err
	}
	e.lay.set("core.save_ms", save.Seconds()*1000)
	e.e2e.set("snapshot_bytes_per_paper", float64(size)/float64(s.papers))
	e.res.Counts["snapshot_bytes"] = strconv.FormatInt(size, 10)
	return path, nil
}

// saveSnapshot writes eng's snapshot to path and returns its size.
func saveSnapshot(eng *core.Engine, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := eng.SaveSnapshot(f); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return 0, err
	}
	return size, f.Close()
}

// overlap is |got ∩ want| / |want|.
func overlap(got []hetgraph.NodeID, want []pgindex.Result) float64 {
	in := make(map[hetgraph.NodeID]bool, len(want))
	for _, w := range want {
		in[w.ID] = true
	}
	hit := 0
	for _, g := range got {
		if in[g] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// wellFormed reports whether ranks is a complete top-n answer in the
// repo's canonical order: score descending, ties by expert id ascending.
func wellFormed(ranks []ta.Ranking) bool {
	if len(ranks) != topN {
		return false
	}
	for i := 1; i < len(ranks); i++ {
		a, b := ranks[i-1], ranks[i]
		if a.Score < b.Score || (a.Score == b.Score && a.Expert >= b.Expert) {
			return false
		}
	}
	return true
}

// sameRanking compares experts and the bits of their scores.
func sameRanking(a, b []ta.Ranking) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Expert != b[i].Expert || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// persistAndRecover writes the engine's state to disk, reopens it, and
// checks the first reopened engine against the one that was serving: every acked write is there, and rankings are the same
// bits. It returns the path of the snapshot that holds the final state.
func (e *env) persistAndRecover() (string, error) {
	s := e.spec
	n := min(recoverN, len(e.quality))
	before := make([][]ta.Ranking, n)
	for i, q := range e.quality[:n] {
		var err error
		if before[i], _, err = e.eng.TopExperts(q.Text, topM, topN); err != nil {
			return "", err
		}
	}

	path := filepath.Join(e.dir, "final.efs")
	if s.durable {
		if e.acked > 0 {
			e.lay.set("durable.wal_bytes_per_update", float64(dirSize(filepath.Join(e.store.Dir(), "wal")))/float64(e.acked))
		}
		if e.cfg.traced {
			if err := e.probeCrashRecovery(); err != nil {
				return "", err
			}
		}
		if err := e.store.Close(); err != nil {
			return "", err
		}
		path = e.store.SnapshotPath()
	} else if _, err := saveSnapshot(e.eng, path); err != nil {
		return "", err
	}

	// One reopening carries the checks; the traced run repeats it for a
	// steadier time.
	reps := 1
	if e.cfg.traced {
		reps = recoverReps
	}
	var times []float64
	for rep := 0; rep < reps; rep++ {
		g := e.freshGraph() // the restore replays the journalled writes into it
		runtime.GC()        // the generated graph's garbage is not the reopen's to pay for
		var eng *core.Engine
		var st *core.Store
		var err error
		d := e.rec.timed("core.recover", -1, -1, func() {
			if s.durable {
				st, err = core.OpenStore(e.store.Dir(), g, noBuild, core.StoreOptions{Metrics: obs.NewRegistry()})
				if err != nil {
					return
				}
				eng = st.Engine()
			} else if eng, err = core.LoadFileWith(path, g, core.LoadOptions{}); err != nil {
				return
			}
			_, _, err = eng.TopExperts(e.quality[0].Text, topM, topN)
		})
		if err != nil {
			return "", err
		}
		times = append(times, d.Seconds())

		if rep == 0 {
			lost := 0
			if got, want := eng.Graph().NumNodesOfType(hetgraph.Paper), s.papers+e.acked; got != want {
				lost = 1
				e.res.Notes = append(e.res.Notes, fmt.Sprintf("reopened engine holds %d papers, want %d", got, want))
			}
			e.check("every acked write survives the reopen", 1, lost)
			failed := 0
			for i, q := range e.quality[:n] {
				want := before[i]
				if e.cfg.corruptReference && len(want) > 1 {
					want[0], want[1] = want[1], want[0]
				}
				got, _, err := eng.TopExperts(q.Text, topM, topN)
				if err != nil || !sameRanking(got, want) {
					failed++
				}
			}
			e.check("ranking after the reopen equals the one before bit for bit", n, failed)
		}
		if st != nil {
			err = st.Close()
		} else {
			err = eng.CloseSnapshot()
		}
		if err != nil {
			return "", err
		}
	}
	e.lay.set("core.recovery_s", median(times))
	return path, nil
}

func dirSize(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir) // a missing directory has size 0
	for _, ent := range entries {
		if fi, err := ent.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}
