package core

import (
	"container/list"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/ta"
)

// CacheConfig configures the engine's query cache (EnableQueryCache).
type CacheConfig struct {
	// MaxEntries bounds the number of cached queries; <= 0 disables the
	// cache.
	MaxEntries int
}

// cachedResult is one memoised query answer. Slices are never handed out
// directly: Get copies, so a caller mutating its result cannot corrupt
// later hits.
type cachedResult struct {
	papers  []hetgraph.NodeID
	experts []ta.Ranking
	stats   QueryStats
}

func (r cachedResult) clone() cachedResult {
	out := r
	if r.papers != nil {
		out.papers = append([]hetgraph.NodeID(nil), r.papers...)
	}
	if r.experts != nil {
		out.experts = append([]ta.Ranking(nil), r.experts...)
	}
	return out
}

// cacheEntry is one resident entry. Invalidate empties the list under the
// lock that bumps the generation, so every resident entry belongs to the
// current generation and none expires by age.
type cacheEntry struct {
	key string
	val cachedResult
}

// queryCache is a concurrency-safe LRU of exactly max entries over
// normalized query keys, with generation-based invalidation. Hit, miss
// and eviction traffic lands in the engine's cacheMetrics.
type queryCache struct {
	mu  sync.Mutex
	lru *list.List // front: most recent; values are *cacheEntry
	pos map[string]*list.Element
	max int
	gen uint64
	*cacheMetrics
}

// cacheMetrics are the engine's query-cache handles. The engine owns them,
// not the cache, so they are listed whether or not a cache is attached.
type cacheMetrics struct {
	hits, misses, evictions, invalidations *obs.Counter
	entries                                *obs.Gauge
}

// newQueryCache returns a cache of at most maxEntries entries, or nil
// when maxEntries <= 0.
func newQueryCache(maxEntries int, m *cacheMetrics) *queryCache {
	if maxEntries <= 0 {
		return nil
	}
	return &queryCache{lru: list.New(), pos: map[string]*list.Element{}, max: maxEntries, cacheMetrics: m}
}

// generation returns the current invalidation epoch. Callers capture it
// BEFORE reading engine state; Put then refuses results computed against
// a superseded epoch, so a fill racing an update can never publish stale
// experts.
func (c *queryCache) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Get returns the cached result for key, if present.
func (c *queryCache) Get(key string) (cachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.pos[key]
	if !ok {
		c.misses.Inc()
		return cachedResult{}, false
	}
	c.lru.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*cacheEntry).val.clone(), true
}

// Put stores a result computed while the cache was at generation gen. A
// stale gen (an update landed meanwhile) discards the value instead.
func (c *queryCache) Put(key string, v cachedResult, gen uint64) {
	e := &cacheEntry{key: key, val: v.clone()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	if el, ok := c.pos[key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.pos[key] = c.lru.PushFront(e)
	if c.lru.Len() > c.max {
		delete(c.pos, c.lru.Remove(c.lru.Back()).(*cacheEntry).key)
		c.evictions.Inc()
	} else {
		c.entries.Add(1)
	}
}

// Invalidate drops every entry and starts a new generation, so a fill
// captured before the call can no longer Put.
func (c *queryCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.entries.Add(float64(-c.lru.Len()))
	c.lru.Init()
	c.pos = map[string]*list.Element{}
	c.invalidations.Inc()
}
