package core

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/ta"
)

// CacheConfig configures the engine's query cache (EnableQueryCache).
type CacheConfig struct {
	// MaxEntries bounds the total number of cached queries across all
	// shards; <= 0 disables the cache.
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

// cacheEntry is one shard-resident entry. gen pins the engine state the
// fill observed; Get rejects entries from a superseded generation even if
// a concurrent purge has not swept them yet. An entry of the current
// generation is exactly as current as the engine, so none expires by age.
type cacheEntry struct {
	key string
	val cachedResult
	gen uint64
}

type cacheShard struct {
	mu  sync.Mutex
	lru *list.List // front: most recent; values are *cacheEntry
	pos map[string]*list.Element
	cap int
}

// queryCache is a sharded, concurrency-safe LRU over normalized query
// keys with generation-based invalidation. Hit/miss/eviction
// traffic lands in the engine's cacheMetrics.
type queryCache struct {
	shards []*cacheShard
	seed   maphash.Seed
	gen    atomic.Uint64
	*cacheMetrics
}

// cacheMetrics are the engine's query-cache handles. The engine owns them,
// not the cache, so they are listed whether or not a cache is attached.
type cacheMetrics struct {
	hits, misses, evictions, invalidations *obs.Counter
	entries                                *obs.Gauge
}

// newQueryCache returns a cache of at most maxEntries entries split over
// shards independently locked segments (rounded up to a power of two, and
// down to one entry each at least), or nil when maxEntries <= 0.
func newQueryCache(maxEntries, shards int, m *cacheMetrics) *queryCache {
	if maxEntries <= 0 {
		return nil
	}
	// Round up to a power of two so shard selection is a mask.
	ns := 1
	for ns < shards {
		ns <<= 1
	}
	if ns > maxEntries {
		ns = 1
		for ns*2 <= maxEntries {
			ns <<= 1
		}
	}
	c := &queryCache{
		shards:       make([]*cacheShard, ns),
		seed:         maphash.MakeSeed(),
		cacheMetrics: m,
	}
	per := maxEntries / ns
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &cacheShard{lru: list.New(), pos: map[string]*list.Element{}, cap: per}
	}
	return c
}

func (c *queryCache) shard(key string) *cacheShard {
	return c.shards[maphash.String(c.seed, key)&uint64(len(c.shards)-1)]
}

// generation returns the current invalidation epoch. Callers capture it
// BEFORE reading engine state; Put then refuses results computed against
// a superseded epoch, so a fill racing an update can never publish stale
// experts.
func (c *queryCache) generation() uint64 { return c.gen.Load() }

// Get returns the cached result for key, if present and from the current
// generation.
func (c *queryCache) Get(key string) (cachedResult, bool) {
	s := c.shard(key)
	gen := c.gen.Load()
	s.mu.Lock()
	el, ok := s.pos[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		return cachedResult{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		s.removeLocked(el)
		s.mu.Unlock()
		c.entries.Add(-1)
		c.misses.Inc()
		return cachedResult{}, false
	}
	s.lru.MoveToFront(el)
	out := e.val.clone()
	s.mu.Unlock()
	c.hits.Inc()
	return out, true
}

// Put stores a result computed while the cache was at generation gen. A
// stale gen (an update landed meanwhile) discards the value instead.
func (c *queryCache) Put(key string, v cachedResult, gen uint64) {
	if c.gen.Load() != gen {
		return
	}
	e := &cacheEntry{key: key, val: v.clone(), gen: gen}
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.pos[key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.pos[key] = s.lru.PushFront(e)
	var evicted bool
	if s.lru.Len() > s.cap {
		s.removeLocked(s.lru.Back())
		evicted = true
	}
	s.mu.Unlock()
	if evicted {
		c.evictions.Inc()
	} else {
		c.entries.Add(1)
	}
}

// removeLocked unlinks el from the shard; the caller holds s.mu and owns
// the entries gauge.
func (s *cacheShard) removeLocked(el *list.Element) {
	delete(s.pos, el.Value.(*cacheEntry).key)
	s.lru.Remove(el)
}

// Invalidate drops every entry. The generation bump happens first, so a
// racing Put (or a Get of an entry the sweep has not reached) observes
// the new epoch and refuses the stale value.
func (c *queryCache) Invalidate() {
	c.gen.Add(1)
	var dropped int
	for _, s := range c.shards {
		s.mu.Lock()
		dropped += s.lru.Len()
		s.lru.Init()
		s.pos = map[string]*list.Element{}
		s.mu.Unlock()
	}
	c.entries.Add(float64(-dropped))
	c.invalidations.Inc()
}
