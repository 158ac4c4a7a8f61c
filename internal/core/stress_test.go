package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

// The Stress tests are the race-hunting suite: CI runs them under -race
// with -count=2 (see ci.yml). They hammer one shared engine with every
// concurrent entry point at once and assert the cache coherence contract
// — a query issued after AddPaper returns always sees the new paper.

func TestStressConcurrentQueriesAndUpdates(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(120))
	g := ds.Graph
	e, err := Build(g, Options{Dim: 8, Seed: 4})
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
	// query set so cache hits, misses and coalesced fills all occur. Each
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
	if n, max := e.QueryCacheLen(), 256; n > max {
		t.Fatalf("cache grew past its bound: %d > %d", n, max)
	}
}

func TestStressCacheFillInvalidate(t *testing.T) {
	c, _ := newTestCache(t, 64, 4)
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
	if n := c.Len(); n > 64 {
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
	// interleaved with live ones so the singleflight path sees both leader
	// cancellations and healthy fills.
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
