package core

import (
	"context"

	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

// This file is the concurrent query-serving layer over the engine: the
// public TopExperts/RetrievePapers entry points, their context-aware
// variants, and the cache lookup and fill between them.
//
// A cached entry is only ever published for the engine state it was
// computed on: fills capture the cache generation before taking the read
// lock, updates bump the generation after mutating, and Put refuses a
// fill from an older generation. See cache.go for the full invariant.

// EnableQueryCache attaches an LRU query cache to the engine. Queries
// with identical normalized text and bounds (see normalizeQueryKey) are
// then answered from memory until an update invalidates them. A
// MaxEntries <= 0 config detaches the cache.
// Not safe to call concurrently with queries: enable the cache before
// serving.
func (e *Engine) EnableQueryCache(cfg CacheConfig) {
	e.qcache = newQueryCache(cfg.MaxEntries, e.m.cache)
}

// invalidateQueryCache drops every cached query result; every update
// calls it.
func (e *Engine) invalidateQueryCache() {
	if e.qcache != nil {
		e.qcache.Invalidate()
	}
}

// TopExperts answers a query (§IV-C): retrieve the top-m papers, extract
// candidate experts, and return the top-n by ranking score
// (ta.TopExperts). m and n must be positive; a *BadParamError reports
// violations instead of silently ranking over zero papers.
func (e *Engine) TopExperts(query string, m, n int) ([]ta.Ranking, QueryStats, error) {
	return e.TopExpertsCtx(context.Background(), query, m, n)
}

// TopExpertsCtx is TopExperts with cooperative cancellation: ctx is
// checked between the encode, retrieval and ranking stages and inside
// the PG-Index expansion, exact scan and expert scoring loops, so an
// expired deadline surfaces as ctx.Err() within a few hundred distance
// computations.
func (e *Engine) TopExpertsCtx(ctx context.Context, query string, m, n int) ([]ta.Ranking, QueryStats, error) {
	if m <= 0 {
		return nil, QueryStats{}, &BadParamError{Param: "m", Value: m}
	}
	if n <= 0 {
		return nil, QueryStats{}, &BadParamError{Param: "n", Value: n}
	}
	// A caller whose deadline already passed gets ctx.Err() even when the
	// answer sits in the cache: nobody is waiting for it.
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	v, st, err := e.cachedQuery(ctx, kindExperts, query, m, n,
		func(ctx context.Context) (cachedResult, error) {
			experts, st, err := e.topExpertsLocked(ctx, query, m, n)
			return cachedResult{experts: experts, stats: st}, err
		})
	if err != nil {
		return nil, st, err
	}
	return v.experts, st, nil
}

// RetrievePapers returns the top-m papers semantically similar to the
// query text (§IV-B), via the PG-Index or, when disabled, a brute-force
// scan. m must be positive (*BadParamError otherwise).
func (e *Engine) RetrievePapers(query string, m int) ([]hetgraph.NodeID, QueryStats, error) {
	return e.RetrievePapersCtx(context.Background(), query, m)
}

// RetrievePapersCtx is RetrievePapers with cooperative cancellation,
// checked between and inside the encode and retrieval stages.
func (e *Engine) RetrievePapersCtx(ctx context.Context, query string, m int) ([]hetgraph.NodeID, QueryStats, error) {
	if m <= 0 {
		return nil, QueryStats{}, &BadParamError{Param: "m", Value: m}
	}
	if err := ctx.Err(); err != nil {
		return nil, QueryStats{}, err
	}
	v, st, err := e.cachedQuery(ctx, kindPapers, query, m, 0,
		func(ctx context.Context) (cachedResult, error) {
			ids, st, err := e.retrievePapersQuery(ctx, query, m)
			return cachedResult{papers: ids, stats: st}, err
		})
	if err != nil {
		return nil, st, err
	}
	return v.papers, st, nil
}

// retrievePapersQuery runs the uncached paper-retrieval pipeline under a
// read lock with its own root span.
func (e *Engine) retrievePapersQuery(ctx context.Context, query string, m int) ([]hetgraph.NodeID, QueryStats, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sctx, root := e.startQuery(ctx)
	ids, st, err := e.retrievePapersLocked(sctx, query, m)
	if err != nil {
		e.abandonQuery(root)
		return nil, st, err
	}
	e.finishQuery(root, st)
	return ids, st, nil
}

// cachedQuery is the shared cache path: lookup, fill, publish. Only
// successful fills are published, and only under the generation captured
// before the fill read any engine state. Without a cache it only fills.
func (e *Engine) cachedQuery(ctx context.Context, kind queryKind, query string, m, n int,
	fill func(context.Context) (cachedResult, error)) (cachedResult, QueryStats, error) {
	if e.qcache == nil {
		v, err := fill(ctx)
		return v, v.stats, err
	}
	key := cacheKey(kind, normalizeQueryKey(query), m, n)
	if v, ok := e.qcache.Get(key); ok {
		st := v.stats
		st.CacheHit = true
		return v, st, nil
	}
	gen := e.qcache.generation()
	v, err := fill(ctx)
	if err != nil {
		return cachedResult{}, v.stats, err
	}
	e.qcache.Put(key, v, gen)
	return v, v.stats, nil
}
