package pgindex

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// This file holds the package's exact top-m selection over row scans: a
// threshold buffer of packed keys under the canonical total order
// (squared distance ascending, paper id ascending) and the blocked scan
// over contiguous rows that feeds it. An index without a graph (every
// search), a graph index's exhaustive path and the map oracle BruteForce
// select through it; the greedy search keeps its pool in the same keys,
// the dense row in the id's place (searchScratch), and cuts and sorts its
// answer with the same selectSmallest and sortKeys, so their rankings
// agree bit for bit by construction.

// selector keeps the m first candidates in canonical order, each packed
// into one key Float32bits(d²)<<32 | uint32(id). Distances are ≥ +0 and
// ids non-negative, so keys order exactly as (d², id) do, a NaN d² after
// +Inf; squared float32 distances order as their float64 roots do (sqrt
// is strictly monotone at this precision), so only survivors get a root.
// keys holds every candidate whose key was at most tau when added, tau
// being the m-th key at the last compaction. The buffer holds 2m keys
// plus selectSlack: a compaction cuts it back to its m smallest as soon
// as 2m have passed tau, so a buffer of keys never outgrows a few
// kilobytes or sits on keys a tighter tau would have refused. Selectors,
// and with them their buffers, are recycled through a pool.
type selector struct {
	m, size int // size is the buffer's length: min(total, 2m+selectSlack)
	tau     uint64
	keys    []uint64 // the buffered keys, in an array of at least size
	tmp     []uint64 // the final sort's scratch
}

// selectSlack is how many keys past 2m the buffer holds, so a compaction
// never leaves it with room for only a row or two before the next.
const selectSlack = 64

var selectors = sync.Pool{New: func() any { return new(selector) }}

// maxPooledKeys caps the keys a pooled selector keeps in either buffer:
// 2m + 64 for m up to about 2 000, so a scan's or a search's m = 200 is
// recycled while an exhaustive Search or a BruteForce over a large map
// drops its buffers.
const maxPooledKeys = 4096

// newSelector returns a recycled selector of the m best of total
// candidates; 0 < m <= total. results returns it to the pool.
func newSelector(m, total int) *selector {
	s := selectors.Get().(*selector)
	s.m, s.size, s.tau = m, min(total, 2*m+selectSlack), math.MaxUint64
	if cap(s.keys) < s.size {
		s.keys = make([]uint64, s.size)
	}
	s.keys = s.keys[:0]
	return s
}

// add offers candidate i (id ids[i], squared distance d2[i]) for every i,
// as many at a time as the buffer has room for, with no data-dependent
// branch per row: each key is written and the length advanced past it
// only if it is within tau. At 2m keys the buffer is cut back to its m
// smallest, which lowers tau.
func (s *selector) add(ids []hetgraph.NodeID, d2 []float32) {
	buf, n, tau := s.keys[:s.size], len(s.keys), s.tau
	for len(d2) > 0 {
		step := min(len(d2), len(buf)-n)
		for i, d := range d2[:step] {
			k := packKey(d, int32(ids[i]))
			buf[n] = k
			_, over := bits.Sub64(tau, k, 0) // 1 when k > tau: SUB and SBB, no branch
			n += int(over ^ 1)
		}
		ids, d2 = ids[step:], d2[step:]
		if n >= 2*s.m {
			tau = selectSmallest(buf[:n], s.m)[s.m-1]
			n = s.m
		}
	}
	s.keys, s.tau = buf[:n], tau
}

// results returns the m survivors in canonical order, each distance
// square-rooted, and puts the selector back in the pool.
func (s *selector) results() []Result {
	keys := s.keys
	if len(keys) > s.m {
		keys = selectSmallest(keys, s.m)
	}
	if cap(s.tmp) < len(keys) {
		s.tmp = make([]uint64, len(keys))
	}
	sortKeys(keys, s.tmp[:len(keys)])
	out := make([]Result, len(keys))
	for i, k := range keys {
		out[i] = Result{ID: hetgraph.NodeID(uint32(k)), Dist: keyDist(k)}
	}
	if cap(s.keys) > maxPooledKeys || cap(s.tmp) > maxPooledKeys {
		s.keys, s.tmp = nil, nil // one exhaustive cut does not stay pinned in the pool
	}
	selectors.Put(s)
	return out
}

// packKey packs squared distance d and id i, a paper id or (in the
// greedy walk and refineNeighbors) a dense row, into one key.
func packKey(d float32, i int32) uint64 { return uint64(math.Float32bits(d))<<32 | uint64(uint32(i)) }

// keyDist returns the distance δ of key k: the root of its d².
func keyDist(k uint64) float64 { return sqrt(float64(math.Float32frombits(uint32(k >> 32)))) }

// sortKeys sorts keys ascending, with tmp (as long as keys) as scratch:
// an LSD radix sort by bytes that skips every byte all keys share — the
// high bytes of the ids and of the distances' exponents, on a scan — each
// pass a count, a prefix sum and a stable scatter, none with a branch that
// depends on a key. Keys are unique, so this is the one order any correct
// sort gives; on the 200 survivors of a shard's scan it takes about half
// the time of slices.Sort, whose comparisons mispredict.
func sortKeys(keys, tmp []uint64) {
	if len(keys) < 2 {
		return
	}
	and, or := keys[0], keys[0]
	for _, k := range keys {
		and &= k
		or |= k
	}
	src, dst := keys, tmp
	for shift := 0; shift < 64; shift += 8 {
		if byte((and^or)>>shift) == 0 {
			continue
		}
		var at [256]int32
		for _, k := range src {
			at[byte(k>>shift)]++
		}
		var sum int32
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[at[d]] = k
			at[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// selectSmallest reorders keys so that its first k are its k smallest,
// the k-th smallest last among them, and returns them: quickselect with
// a median-of-three pivot, O(len(keys)) expected, each partition a
// branch-free Lomuto pass (partitionBelow) — a partition that branches on
// every comparison mispredicts about one key in two on distances in scan
// order — and a range of at most 16 keys finished by insertion.
func selectSmallest(keys []uint64, k int) []uint64 {
	lo, hi, t := 0, len(keys), k-1
	for hi-lo > 16 {
		s := keys[lo:hi]
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		p := max(min(a, b), min(max(a, b), c))
		j := lo + partitionBelow(s, p)
		if j == lo {
			// p is the range's least key, repeated: split off its copies,
			// which are settled.
			if p == math.MaxUint64 {
				break
			}
			if j = lo + partitionBelow(s, p+1); t < j {
				return keys[:k]
			}
		}
		if t < j {
			hi = j
		} else {
			lo = j
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys[:k]
}

// partitionBelow moves the keys of s below p to its front, in no
// particular order, and returns how many there are. Every key is swapped
// into place and the count advanced by the comparison's borrow, so no
// branch depends on a key.
func partitionBelow(s []uint64, p uint64) int {
	j := 0
	for i, v := range s {
		s[i] = s[j]
		s[j] = v
		_, below := bits.Sub64(v, p, 0) // 1 when v < p
		j += int(below)
	}
	return j
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
