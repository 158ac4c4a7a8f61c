package pgindex

import (
	"context"
	"math"
	"slices"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// This file holds the package's exact top-m selection over row scans: a
// threshold buffer of packed keys under the canonical total order
// (squared distance ascending, paper id ascending) and the blocked scan
// over contiguous rows that feeds it. An index without a graph (every
// search), a graph index's exhaustive path and the map oracle BruteForce
// select through it; the greedy search keeps its pool sorted in the same
// order (searchScratch), so their rankings agree bit for bit by
// construction.

// selector keeps the m first candidates in canonical order, each packed
// into one key Float32bits(d²)<<32 | uint32(id). Distances are ≥ +0 and
// ids non-negative, so keys order exactly as (d², id) do, a NaN d² after
// +Inf; squared float32 distances order as their float64 roots do (sqrt
// is strictly monotone at this precision), so only survivors get a root.
// keys holds every candidate whose key was at most tau when added, tau
// being the m-th key at the last compaction. The buffer is not pooled:
// at m = 200 it is one 11 KB allocation per query, noise beside a scan.
type selector struct {
	m    int
	tau  uint64
	keys []uint64 // cap 2m+scanBlock, or the candidate count if smaller
}

// newSelector returns a selector of the m best of total candidates;
// 0 < m <= total.
func newSelector(m, total int) *selector {
	return &selector{m: m, tau: math.MaxUint64, keys: make([]uint64, 0, min(total, 2*m+scanBlock))}
}

// add offers candidate i (id ids[i], squared distance d2[i]) for every i,
// scanBlock at a time, with no data-dependent branch per row: each key is
// written and the length advanced past it only if it is within tau. At 2m
// keys the buffer is cut back to its m smallest, which lowers tau.
func (s *selector) add(ids []hetgraph.NodeID, d2 []float32) {
	for lo := 0; lo < len(d2); lo += scanBlock {
		buf, n, tau := s.keys[:cap(s.keys)], len(s.keys), s.tau
		for i, d := range d2[lo:min(lo+scanBlock, len(d2))] {
			k := uint64(math.Float32bits(d))<<32 | uint64(uint32(ids[lo+i]))
			buf[n] = k
			if k <= tau {
				n++
			}
		}
		if s.keys = buf[:n]; n >= 2*s.m {
			s.keys = selectSmallest(s.keys, s.m)
			s.tau = s.keys[s.m-1]
		}
	}
}

// results returns the m survivors in canonical order, each distance
// square-rooted.
func (s *selector) results() []Result {
	keys := selectSmallest(s.keys, s.m)
	slices.Sort(keys)
	out := make([]Result, len(keys))
	for i, k := range keys {
		out[i] = Result{ID: hetgraph.NodeID(uint32(k)), Dist: sqrt(float64(math.Float32frombits(uint32(k >> 32))))}
	}
	return out
}

// selectSmallest reorders keys so that its first k are its k smallest,
// the k-th smallest last among them, and returns them: Hoare's
// quickselect with a median-of-three pivot, O(len(keys)) expected.
func selectSmallest(keys []uint64, k int) []uint64 {
	lo, hi, t := 0, len(keys)-1, k-1
	for lo < hi {
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi]
		p, i, j := max(min(a, b), min(max(a, b), c)), lo, hi
		for i <= j {
			for keys[i] < p {
				i++
			}
			for p < keys[j] {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		if j < t {
			lo = i
		}
		if t < i {
			hi = j
		}
	}
	return keys[:k]
}

// scanBlock is how many rows the scan covers between context polls and
// per kernel call: 256 KB of a 64-dim matrix, tens of microseconds of
// work, and a 4 KB array of distances on the scan's stack.
const scanBlock = 1024

// Scan returns the exact m nearest rows to the query — the "w/o PG-Index"
// retrieval of Ours-3/Ours-4 — in canonical order: distance ascending,
// ties by paper id; a NaN distance, which finite rows never give, ranks
// after +Inf and after every finite one. ids[i] names row i of rows;
// both are only read. A done ctx stops the scan at the next block of rows
// with ctx.Err(). A block's distances come from one vec.L2SqRows32 call,
// the bits a call per row would give. It is one pass on the caller's
// goroutine: splitting row ranges over Ps did not beat it by more than
// the run-to-run spread on any benchmarked workload (DESIGN.md, "One
// exact top-m selector, one canonical order").
func Scan(ctx context.Context, ids []hetgraph.NodeID, rows *vec.Matrix32, query vec.Vec32, m int) ([]Result, error) {
	m = min(m, len(ids))
	if m <= 0 {
		return nil, ctx.Err()
	}
	s := newSelector(m, len(ids))
	dim := rows.Cols
	var d2 [scanBlock]float32
	for lo := 0; lo < len(ids); lo += scanBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(lo+scanBlock, len(ids))
		block := d2[:end-lo]
		vec.L2SqRows32(block, rows.Data[lo*dim:end*dim], query)
		s.add(ids[lo:end], block)
	}
	return s.results(), nil
}
