package pgindex

import (
	"context"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// This file holds the package's exact top-m selection over row scans: a
// bounded max-heap under the canonical total order (squared distance
// ascending, paper id ascending) and the blocked scan over contiguous
// rows that feeds it. An index without a graph (every search), a graph
// index's exhaustive path and the map oracle BruteForce select through
// it; the greedy search keeps its pool sorted in the same order
// (searchScratch), so their rankings agree bit for bit by construction.

// scored is one candidate: its squared distance to the query and its id.
type scored struct {
	d2 float32
	id hetgraph.NodeID
}

// before is the canonical order. Squared float32 distances order exactly
// as the float64 roots published in Result.Dist do (sqrt is strictly
// monotone at this precision), so the root is taken for survivors only.
func (a scored) before(b scored) bool {
	return a.d2 < b.d2 || (a.d2 == b.d2 && a.id < b.id)
}

// topM keeps, of the candidates offered, the m that come first in
// canonical order, as a binary max-heap: h[0] is the worst survivor, the
// one a better candidate evicts. m must be positive.
type topM struct {
	m int
	h []scored
}

func newTopM(m int) topM { return topM{m: m, h: make([]scored, 0, m)} }

// offer considers one candidate. The common case — a full heap and a
// distance beyond its worst — is one comparison and inlines into the scan.
func (t *topM) offer(d2 float32, id hetgraph.NodeID) {
	if len(t.h) == t.m && d2 > t.h[0].d2 {
		return
	}
	t.insert(scored{d2, id})
}

func (t *topM) insert(s scored) {
	h := t.h
	if len(h) < t.m {
		h = append(h, s)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h[p].before(h[i]) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		t.h = h
		return
	}
	if !s.before(h[0]) {
		return
	}
	h[0] = s
	siftDown(h, 0)
}

func siftDown(h []scored, i int) {
	for {
		l, r, worst := 2*i+1, 2*i+2, i
		if l < len(h) && h[worst].before(h[l]) {
			worst = l
		}
		if r < len(h) && h[worst].before(h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// results empties the heap into canonical ascending order, taking the
// square root of each survivor's distance.
func (t *topM) results() []Result {
	h := t.h
	out := make([]Result, len(h))
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = Result{ID: h[0].id, Dist: sqrt(float64(h[0].d2))}
		h[0] = h[n]
		h = h[:n]
		siftDown(h, 0)
	}
	t.h = h
	return out
}

// scanBlock is how many rows the scan covers between context polls and
// per kernel call: 256 KB of a 64-dim matrix, tens of microseconds of
// work, and a 4 KB array of distances on the scan's stack.
const scanBlock = 1024

// Scan returns the exact m nearest rows to the query — the "w/o PG-Index"
// retrieval of Ours-3/Ours-4 — in canonical order: distance ascending,
// ties by paper id. ids[i] names row i of rows; both are only read. A done
// ctx stops the scan at the next block of rows with ctx.Err(). A block's
// distances come from one vec.L2SqRows32 call and reach the heap in row
// order, the sequence a call per row would give. It is one
// pass on the caller's goroutine: splitting row ranges over Ps did not beat
// it by more than the run-to-run spread on any benchmarked workload
// (DESIGN.md, "One exact top-m selector, one canonical order").
func Scan(ctx context.Context, ids []hetgraph.NodeID, rows *vec.Matrix32, query vec.Vec32, m int) ([]Result, error) {
	m = min(m, len(ids))
	if m <= 0 {
		return nil, ctx.Err()
	}
	t := newTopM(m)
	dim := rows.Cols
	var d2 [scanBlock]float32
	for lo := 0; lo < len(ids); lo += scanBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(lo+scanBlock, len(ids))
		block := d2[:end-lo]
		vec.L2SqRows32(block, rows.Data[lo*dim:end*dim], query)
		for i, d := range block {
			t.offer(d, ids[lo+i])
		}
	}
	return t.results(), nil
}
