package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/vec"
)

// The Stress tests are the race-hunting suite: CI runs them under -race
// with -count=2 (see ci.yml). They hammer one shared engine with every
// concurrent entry point at once and assert the cache coherence contract
// — a query issued after AddPaper returns always sees the new paper.

func TestStressConcurrentQueriesAndUpdates(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(120))
	g := ds.Graph
	e, err := Build(g, Options{Dim: 8, Seed: 4, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableQueryCache(CacheConfig{MaxEntries: 256})

	queries := []string{
		"graph embedding", "neural ranking", "community detection",
		"Graph  Embedding", // normalization variant of the first
	}
	papers := g.NodesOfType(hetgraph.Paper)
	authors := g.NodesOfType(hetgraph.Author)
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	var queriesRun atomic.Int64

	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Query workers: experts, papers and similar lookups over a small
	// query set so cache hits and misses both occur. Each
	// signals ready after its first query so the checker below genuinely
	// races them even on GOMAXPROCS=1, where an un-yielding main goroutine
	// could otherwise finish before any worker is scheduled.
	const workers = 6
	ready.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			first := true
			// A worker that errors out before its first success must not
			// leave ready.Wait() hanging.
			defer func() {
				if first {
					ready.Done()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[rng.Intn(len(queries))]
				switch rng.Intn(3) {
				case 0:
					if _, _, err := e.TopExperts(q, 20, 5); err != nil {
						fail("TopExperts: %v", err)
						return
					}
				case 1:
					if _, _, err := e.RetrievePapers(q, 10); err != nil {
						fail("RetrievePapers: %v", err)
						return
					}
				default:
					p := papers[rng.Intn(len(papers))]
					if _, _, err := e.SimilarPapers(context.Background(), p, 5); err != nil {
						fail("SimilarPapers: %v", err)
						return
					}
				}
				queriesRun.Add(1)
				if first {
					first = false
					ready.Done()
				}
			}
		}(int64(w))
	}

	// An operator goroutine invalidating out of band, racing the fills.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				e.invalidateQueryCache()
			}
		}
	}()

	// The coherence checker: warm the cache for a unique query, mutate the
	// engine with a paper matching it exactly, and require the very next
	// query to surface that paper. A stale cached ranking cannot contain
	// the id, so any cache bug fails loudly here.
	ready.Wait()
	const updates = 8
	for i := 0; i < updates; i++ {
		// Yield between rounds so the workers keep interleaving with the
		// updates on a single-CPU runtime.
		time.Sleep(time.Millisecond)
		text := fmt.Sprintf("stress coherence manuscript %d about %s", i, g.Label(papers[i]))
		if _, _, err := e.RetrievePapers(text, 5); err != nil {
			t.Fatalf("warm query %d: %v", i, err)
		}
		id, err := e.AddPaper(NewPaper{Text: text, Authors: authors[i : i+1]})
		if err != nil {
			t.Fatalf("AddPaper %d: %v", i, err)
		}
		got, st, err := e.RetrievePapers(text, 5)
		if err != nil {
			t.Fatalf("post-update query %d: %v", i, err)
		}
		found := false
		for _, p := range got {
			if p == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("update %d: stale result after AddPaper (CacheHit=%v): %v misses %d",
				i, st.CacheHit, got, id)
		}
	}

	close(stop)
	wg.Wait()
	if n := queriesRun.Load(); n == 0 {
		t.Fatal("workers never ran a query")
	}
	if n, max := cacheEntries(e.Metrics()), 256; n > max {
		t.Fatalf("cache grew past its bound: %d > %d", n, max)
	}
}

func TestStressCacheFillInvalidate(t *testing.T) {
	c, reg := newTestCache(t, 64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", rng.Intn(128))
				switch rng.Intn(4) {
				case 0:
					c.Put(key, resultWithPapers(hetgraph.NodeID(rng.Intn(64))), c.generation())
				case 1:
					c.Invalidate()
				default:
					if v, ok := c.Get(key); ok && len(v.papers) != 1 {
						t.Error("corrupted cached value")
						return
					}
				}
			}
		}(int64(w))
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := cacheEntries(reg); n > 64 {
		t.Fatalf("cache size %d exceeds bound 64", n)
	}
}

func TestStressDeadlineLeavesNoGoroutines(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(120))
	e, err := Build(ds.Graph, Options{Dim: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableQueryCache(CacheConfig{MaxEntries: 64})

	before := runtime.NumGoroutine()

	// A burst of concurrent queries whose deadlines are already expired,
	// interleaved with live ones so the cache path sees both cancelled
	// and healthy fills.
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if w%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), 1)
					_, _, err := e.TopExpertsCtx(ctx, "graph embedding", 20, 5)
					cancel()
					if !errors.Is(err, context.DeadlineExceeded) {
						t.Errorf("expired query returned %v, want DeadlineExceeded", err)
						return
					}
				} else if _, _, err := e.TopExpertsCtx(context.Background(), "graph embedding", 20, 5); err != nil {
					t.Errorf("live query: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Goroutines parked in the scheduler take a moment to unwind; poll
	// instead of asserting instantly.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStressRowsUnderAddPaper holds the contract of Rows: what a reader
// got stays as it got it while AddPaper appends to the index's storage,
// within its capacity and past it (every append past it moves the
// matrix), and reading it races with no write.
func TestStressRowsUnderAddPaper(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(60))
	e, err := Build(ds.Graph, Options{Dim: 8, Seed: 4, UseKPCore: Bool(false), UsePGIndex: Bool(false)})
	if err != nil {
		t.Fatal(err)
	}
	first, firstRows := e.Rows()
	firstIDs, firstData := slices.Clone(first), slices.Clone(firstRows.Data)

	// check re-reads a held pair against the copy taken when it was got.
	check := func(ids []hetgraph.NodeID, rows *vec.Matrix32, wantIDs []hetgraph.NodeID, want []float32) error {
		if len(ids) != len(wantIDs) || rows.Rows != len(wantIDs) || len(rows.Data) != len(want) {
			return fmt.Errorf("held shape moved: %d ids, %d rows, %d floats; got %d, %d, %d",
				len(wantIDs), len(wantIDs), len(want), len(ids), rows.Rows, len(rows.Data))
		}
		if !slices.Equal(ids, wantIDs) || !slices.Equal(rows.Data, want) {
			return errors.New("held ids or rows changed")
		}
		return nil
	}

	const readers, adds = 4, 200
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	ready.Add(readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for held := 0; ; held++ {
				ids, rows := e.Rows()
				wantIDs, want := slices.Clone(ids), slices.Clone(rows.Data)
				if held == 0 {
					ready.Done()
				}
				for i := 0; i < 8; i++ {
					runtime.Gosched()
					if err := check(ids, rows, wantIDs, want); err != nil {
						t.Error(err)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	ready.Wait()
	authors := ds.Graph.NodesOfType(hetgraph.Author)
	for i := 0; i < adds; i++ {
		if _, err := e.AddPaper(NewPaper{Text: fmt.Sprintf("rows stress paper %d", i),
			Authors: authors[i%len(authors) : i%len(authors)+1]}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	if err := check(first, firstRows, firstIDs, firstData); err != nil {
		t.Fatalf("the first hold after %d adds: %v", adds, err)
	}
	ids, rows := e.Rows()
	if len(ids) != len(first)+adds || !slices.Equal(ids[:len(first)], firstIDs) ||
		!slices.Equal(rows.Data[:len(firstData)], firstData) {
		t.Fatalf("%d rows after %d adds to %d, or the first rows moved", len(ids), adds, len(first))
	}
}
