package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"expertfind/internal/hetgraph"
	"expertfind/internal/obs"
	"expertfind/internal/ta"
)

func newTestCache(t *testing.T, cfg CacheConfig) (*queryCache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c := newQueryCache(cfg, reg)
	if c == nil {
		t.Fatalf("cache disabled for cfg %+v", cfg)
	}
	return c, reg
}

func resultWithPapers(ids ...hetgraph.NodeID) cachedResult {
	return cachedResult{papers: ids}
}

func TestNormalizeQueryKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Graph Embedding", "graph embedding"},
		{"  graph\t\tembedding \n", "graph embedding"},
		{"GRAPH  EMBEDDING", "graph embedding"},
		{"", ""},
		{"   ", ""},
		{"Naïve Gráph 研究", "naïve gráph 研究"},
		{"a", "a"},
		// Already normal ASCII takes the fast path and comes back as is...
		{"graph embedding", "graph embedding"},
		{"k-core (k,p) 2022 x_y", "k-core (k,p) 2022 x_y"},
		{"nul\x00kept", "nul\x00kept"},
		// ...which every one of these must miss by a single byte.
		{"graph embedding ", "graph embedding"},
		{" graph embedding", "graph embedding"},
		{"graph  embedding", "graph embedding"},
		{"graph\vembedding", "graph embedding"},
		{"graph embeddinG", "graph embedding"},
		{"graph\u00a0embedding\u0085", "graph embedding"},
		{"naïve gráph 研究", "naïve gráph 研究"},
		{"ǅ İ", "ǆ i"},
		{"bad\xffutf8", "bad\ufffdutf8"},
	}
	for _, c := range cases {
		if got := NormalizeQueryKey(c.in); got != c.want {
			t.Errorf("NormalizeQueryKey(%q) = %q, want %q", c.in, got, c.want)
		}
		// The fast path may only ever return its input; the general path
		// defines the function.
		if isNormalASCII(c.in) && c.in != c.want {
			t.Errorf("isNormalASCII(%q) is true, but the normal form is %q", c.in, c.want)
		}
		// Idempotence is part of the contract.
		if once := NormalizeQueryKey(c.in); NormalizeQueryKey(once) != once {
			t.Errorf("NormalizeQueryKey not idempotent on %q", c.in)
		}
	}
	normal := "heterogeneous graph embedding for expert finding"
	if allocs := testing.AllocsPerRun(100, func() { normal = NormalizeQueryKey(normal) }); allocs != 0 {
		t.Errorf("normalizing already-normal text made %v allocations, want 0", allocs)
	}
}

func TestCacheKeyDistinguishesKindAndBounds(t *testing.T) {
	keys := map[string]string{}
	for _, k := range []struct {
		kind queryKind
		q    string
		m, n int
	}{
		{kindExperts, "q", 10, 5},
		{kindPapers, "q", 10, 5},
		{kindExperts, "q", 11, 5},
		{kindExperts, "q", 10, 6},
		{kindExperts, "q2", 10, 5},
	} {
		key := cacheKey(k.kind, k.q, k.m, k.n)
		id := fmt.Sprintf("%c|%s|%d|%d", k.kind, k.q, k.m, k.n)
		if prev, dup := keys[key]; dup {
			t.Fatalf("key collision between %s and %s", prev, id)
		}
		keys[key] = id
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c, reg := newTestCache(t, CacheConfig{MaxEntries: 8, Shards: 2})
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", resultWithPapers(1, 2), c.generation())
	if v, ok := c.Get("a"); !ok || len(v.papers) != 2 {
		t.Fatalf("expected hit with 2 papers, got ok=%v v=%+v", ok, v)
	}
	if got := reg.Counter("expertfind_qcache_hits_total", "").Value(); got != 1 {
		t.Errorf("hits = %v, want 1", got)
	}
	if got := reg.Counter("expertfind_qcache_misses_total", "").Value(); got != 1 {
		t.Errorf("misses = %v, want 1", got)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard of capacity 4 so the LRU order is fully observable.
	c, reg := newTestCache(t, CacheConfig{MaxEntries: 4, Shards: 1})
	for i := 0; i < 4; i++ {
		c.Put(fmt.Sprintf("k%d", i), resultWithPapers(hetgraph.NodeID(i)), c.generation())
	}
	// Touch k0 so k1 is the LRU victim.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.Put("k4", resultWithPapers(4), c.generation())
	if _, ok := c.Get("k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s should have survived eviction", k)
		}
	}
	if got := reg.Counter("expertfind_qcache_evictions_total", "").Value(); got != 1 {
		t.Errorf("evictions = %v, want 1", got)
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c, reg := newTestCache(t, CacheConfig{MaxEntries: 8, Shards: 1, TTL: 10 * time.Millisecond})
	c.Put("a", resultWithPapers(1), c.generation())
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry should hit")
	}
	time.Sleep(20 * time.Millisecond)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	if got := reg.Counter("expertfind_qcache_expired_total", "").Value(); got != 1 {
		t.Errorf("expirations = %v, want 1", got)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after expiry, want 0", c.Len())
	}
}

func TestCacheInvalidateDropsEverythingAndBlocksStalePut(t *testing.T) {
	c, reg := newTestCache(t, CacheConfig{MaxEntries: 32, Shards: 4})
	gen := c.generation()
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("k%d", i), resultWithPapers(hetgraph.NodeID(i)), gen)
	}
	c.Invalidate()
	for i := 0; i < 10; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); ok {
			t.Fatalf("k%d survived invalidation", i)
		}
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after invalidation, want 0", c.Len())
	}
	// A fill computed against the pre-invalidation state must be refused.
	c.Put("stale", resultWithPapers(9), gen)
	if _, ok := c.Get("stale"); ok {
		t.Fatal("stale-generation Put was published")
	}
	if got := reg.Counter("expertfind_qcache_invalidations_total", "").Value(); got != 1 {
		t.Errorf("invalidations = %v, want 1", got)
	}
}

func TestCacheStaleGenerationEntryRejectedByGet(t *testing.T) {
	// Simulate the Put-vs-Invalidate race: an entry carrying an old
	// generation that the purge missed must still be rejected at Get.
	c, _ := newTestCache(t, CacheConfig{MaxEntries: 8, Shards: 1})
	gen := c.generation()
	c.Put("a", resultWithPapers(1), gen)
	// Bump the generation WITHOUT purging (not possible through the public
	// surface; poke the field to model the in-flight insert).
	c.gen.Add(1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("entry from a superseded generation served")
	}
}

func TestCacheGetReturnsIsolatedCopies(t *testing.T) {
	c, _ := newTestCache(t, CacheConfig{MaxEntries: 8, Shards: 1})
	c.Put("a", cachedResult{
		papers:  []hetgraph.NodeID{1, 2},
		experts: []ta.Ranking{{Expert: 3, Score: 1}},
	}, c.generation())
	v1, _ := c.Get("a")
	v1.papers[0] = 99
	v1.experts[0].Expert = 99
	v2, _ := c.Get("a")
	if v2.papers[0] != 1 || v2.experts[0].Expert != 3 {
		t.Fatal("cache handed out aliased slices; later hits see caller mutations")
	}
}

func TestCacheShardCountRounding(t *testing.T) {
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		entries, shards, wantShards int
	}{
		{64, 0, 16}, // default
		{64, 3, 4},  // rounded up to a power of two
		{4, 16, 4},  // clamped so every shard holds at least one entry
		{1, 16, 1},
	} {
		c := newQueryCache(CacheConfig{MaxEntries: tc.entries, Shards: tc.shards}, reg)
		if len(c.shards) != tc.wantShards {
			t.Errorf("entries=%d shards=%d: got %d shards, want %d",
				tc.entries, tc.shards, len(c.shards), tc.wantShards)
		}
	}
	if c := newQueryCache(CacheConfig{MaxEntries: 0}, reg); c != nil {
		t.Error("MaxEntries=0 should disable the cache")
	}
}

func TestCacheKeyNoSeparatorInjection(t *testing.T) {
	// A query containing the textual form of another key's suffix must not
	// collide, thanks to the NUL separators.
	a := cacheKey(kindExperts, "q\x0010,5", 10, 5)
	b := cacheKey(kindExperts, "q", 10, 5)
	if a == b {
		t.Fatal("separator injection collides keys")
	}
	if !strings.Contains(a, "\x00") {
		t.Fatal("expected NUL separators in key")
	}
}
