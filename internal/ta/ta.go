// Package ta implements §IV-C: expert scoring over the retrieved top-m
// papers (Eq. 4-6, with Zipf-distributed author-contribution weights) and
// the top-n expert ranking over them — one accumulate-and-select pass
// (TopExpertsOf, a dense accumulator over keys below a stated bound) under
// one order (Ranking.Before). The paper's threshold algorithm (TA/NRA) is
// kept as Figure 7's reference in internal/experiments; TopExpertsFullScan
// is the naive oracle the tests and the benchmark compare against.
//
// Note on polarity: Problem 1 writes arg min R(a), but the score of Eq. 4-6
// accumulates reciprocal ranks, so larger R means a better expert, and the
// paper's own TA walkthrough (Example 5) returns the experts with the
// greatest R. We follow the walkthrough: top-n means the n largest R(a).
package ta

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"expertfind/internal/hetgraph"
)

// Ranking is one returned expert with its ranking score R(a).
type Ranking struct {
	Expert hetgraph.NodeID
	Score  float64
}

// Stats reports the work done by one TopExperts run.
type Stats struct {
	// Candidates is |C|, the number of distinct candidate experts.
	Candidates int
	// SortedAccesses counts the (expert, paper) entries summed.
	SortedAccesses int
	// Depth is the longest author list among the ranked papers.
	Depth int
	// EarlyTermination is always false: TopExperts reads every entry. The
	// field stays until bench/ stops reading it (ROADMAP item 1(a)).
	EarlyTermination bool
}

// ContributionWeight returns w(a,p) of Eq. 5 for the author at 1-based
// rank within a paper having numAuthors authors: a Zipf distribution over
// author positions, normalised by the harmonic number H(numAuthors).
func ContributionWeight(rank, numAuthors int) float64 {
	if rank < 1 || numAuthors < 1 || rank > numAuthors {
		return 0
	}
	return 1 / (float64(rank) * harmonic(numAuthors))
}

// ExpertScore returns S(a,p) of Eq. 4 for the author at 1-based authorRank
// of the paper at 1-based paperRank in the retrieved list.
func ExpertScore(paperRank, authorRank, numAuthors int) float64 {
	if paperRank < 1 {
		return 0
	}
	return ContributionWeight(authorRank, numAuthors) / float64(paperRank)
}

// harmonic returns H(n), memoised: every H(i) extends H(i-1) by 1/i, the
// same ascending summation the direct loop performs, so cached and
// uncached values are bit-identical. The table is tiny (author counts),
// swapped atomically so concurrent rankings read without locking.
func harmonic(n int) float64 {
	if n < 1 {
		return 0
	}
	tab, _ := harmonicVal.Load().([]float64)
	if n < len(tab) {
		return tab[n]
	}
	harmonicMu.Lock()
	defer harmonicMu.Unlock()
	tab, _ = harmonicVal.Load().([]float64)
	if n < len(tab) {
		return tab[n]
	}
	nt := make([]float64, n+1)
	copy(nt, tab)
	start := len(tab)
	if start < 1 {
		start = 1
	}
	for i := start; i <= n; i++ {
		nt[i] = nt[i-1] + 1/float64(i)
	}
	harmonicVal.Store(nt)
	return nt[n]
}

var (
	harmonicMu  sync.Mutex
	harmonicVal atomic.Value // []float64; index i holds H(i)
)

// Before is the package's one ranking order: score descending, ties by
// expert id ascending. Every ranker in the repository orders experts
// through it, so equal scores rank the same way everywhere.
func (a Ranking) Before(b Ranking) bool {
	return a.Score > b.Score || (a.Score == b.Score && a.Expert < b.Expert)
}

// scorer is TopExpertsOf's accumulator, recycled through scorerPool.
// slot[key] is 0 for a key with no sum yet, else its index in sums plus 1;
// sums, in first-added order, is also the list of slots to zero before the
// scorer goes back. A sum adds in ASCENDING PAPER RANK, the package's
// canonical summation order.
type scorer struct {
	slot []int32
	sums []Ranking
}

var scorerPool = sync.Pool{New: func() any { return new(scorer) }}

// top returns the n experts that come first under Before, in that order
// (all of them when fewer were added, nil when n <= 0 or none were): a
// binary heap of n survivors whose root is the one a better candidate
// evicts, then sorted in place.
func (s *scorer) top(n int) []Ranking {
	n = min(n, len(s.sums))
	if n <= 0 {
		return nil
	}
	h := append(make([]Ranking, 0, n), s.sums[:n]...)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, r := range s.sums[n:] {
		if r.Before(h[0]) {
			h[0] = r
			siftDown(h, 0)
		}
	}
	for i := n - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDown(h[:i], 0)
	}
	return h
}

// siftDown restores the heap property below i: a parent never comes
// Before its children, so h[0] is the last of the heap under Before.
func siftDown(h []Ranking, i int) {
	for {
		l, r, last := 2*i+1, 2*i+2, i
		if l < len(h) && h[last].Before(h[l]) {
			last = l
		}
		if r < len(h) && h[last].Before(h[r]) {
			last = r
		}
		if last == i {
			return
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
}

// pollEvery is how many retrieved papers TopExpertsCtx scores between
// context polls: a few microseconds of work.
const pollEvery = 256

// TopExperts is the top-n expert finding of §IV-C over the ranked
// retrieved papers (rank 1 first): it sums S(a,p) per author in ascending
// paper rank and returns the n largest R(a) under Before, with their
// exact scores. The paper prunes this with a threshold algorithm
// (Theorem 2); each ranked list here is one paper's handful of authors,
// so the first sorted-access round already reads a third of all entries
// and the prune never fires — the reference implementation and the sweep
// that shows it live in internal/experiments (DESIGN.md, caveat 7).
func TopExperts(g *hetgraph.Graph, papers []hetgraph.NodeID, n int) ([]Ranking, Stats) {
	out, st, _ := TopExpertsCtx(context.Background(), g, papers, n)
	return out, st
}

// TopExpertsCtx is TopExperts with cooperative cancellation, checked
// every pollEvery papers. On cancellation it returns ctx.Err() with the
// work done so far and no partial ranking.
func TopExpertsCtx(ctx context.Context, g *hetgraph.Graph, papers []hetgraph.NodeID, n int) ([]Ranking, Stats, error) {
	return TopExpertsOf(ctx, len(papers), g.NumNodes(), func(j int) []hetgraph.NodeID { return g.AuthorsOf(papers[j]) }, n)
}

// TopExpertsOf is the ranking loop itself, fed author lists instead of a
// graph: authorsOf(j) is the ordered author list of the paper at rank j+1
// of m, as keys in [0, bound) that become the Experts of the ranking. The
// engine feeds NodeIDs below NumNodes (TopExpertsCtx), the cluster router
// positions in the shards' merged ascending author table — one loop, so
// the two cannot disagree on a bit of a score or on a tie.
func TopExpertsOf(ctx context.Context, m, bound int, authorsOf func(j int) []hetgraph.NodeID, n int) (out []Ranking, st Stats, err error) {
	s := scorerPool.Get().(*scorer)
	if len(s.slot) < bound { // with headroom, so a growing graph reallocates rarely
		s.slot = make([]int32, bound+bound/4)
	}
	defer func() { // on every exit: zero the slots this ranking set
		for _, r := range s.sums {
			s.slot[r.Expert] = 0
		}
		s.sums = s.sums[:0]
		scorerPool.Put(s)
	}()
	for j := 0; j < m; j++ {
		if j%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, st, err
			}
		}
		authors := authorsOf(j)
		h, rank := harmonic(len(authors)), float64(j+1) // ExpertScore's terms, hoisted
		for i, a := range authors {
			k := s.slot[a]
			if k == 0 {
				s.sums = append(s.sums, Ranking{Expert: a})
				k = int32(len(s.sums))
				s.slot[a] = k
			}
			s.sums[k-1].Score += 1 / (float64(i+1) * h) / rank
		}
		st.SortedAccesses += len(authors)
		st.Depth = max(st.Depth, len(authors))
		st.Candidates = len(s.sums)
	}
	return s.top(n), st, nil
}

// TopExpertsFullScan is the naive reference of TopExperts — a map of
// sums, every candidate sorted, cut to n — kept independent of scorer so
// tests and the benchmark have an oracle to compare against.
func TopExpertsFullScan(g *hetgraph.Graph, papers []hetgraph.NodeID, n int) []Ranking {
	scores := map[hetgraph.NodeID]float64{}
	for j, p := range papers {
		authors := g.AuthorsOf(p)
		for i, a := range authors {
			scores[a] += ExpertScore(j+1, i+1, len(authors))
		}
	}
	out := make([]Ranking, 0, len(scores))
	for a, s := range scores {
		out = append(out, Ranking{Expert: a, Score: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
