// Package sampling implements §III-B: sampling-based training-data
// generation. It selects a fraction f of papers as seeds, searches a
// (k,P)-core community around each (one per meta-path, intersected per §V),
// and emits training triples ⟨p+, p_s, p-⟩ with positives drawn from the
// community (Definition 6) and negatives drawn either uniformly from
// outside it (random negative) or from the papers Algorithm 1 pruned
// (near negative, the strategy the paper finds superior). The communities
// are Algorithm 1's, answered for all seeds from one kpcore.CoreIndex per
// meta-path.
package sampling

import (
	"fmt"
	"math/rand"

	"expertfind/internal/hetgraph"
	"expertfind/internal/kpcore"
)

// Strategy selects how negative samples are collected (§III-B).
type Strategy uint8

const (
	// NearNegative samples negatives from the papers pruned by the
	// community search — close to the community but outside it. The
	// paper's default.
	NearNegative Strategy = iota
	// RandomNegative samples negatives uniformly from papers outside the
	// community.
	RandomNegative
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case NearNegative:
		return "near"
	case RandomNegative:
		return "random"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Triple is one training example ⟨p+, p_s, p-⟩.
type Triple struct {
	Pos, Seed, Neg hetgraph.NodeID
}

// Config controls training-data generation. Zero values select the paper's
// defaults where one exists.
type Config struct {
	// Fraction is the seed sampling ratio f over all papers (default 0.3).
	Fraction float64
	// K is the core cohesiveness threshold k (default 4).
	K int
	// MetaPaths are the relationships considered simultaneously (§V);
	// default is {P-A-P, P-T-P}, the paper's best combination.
	MetaPaths []hetgraph.MetaPath
	// Strategy selects negative collection (default NearNegative).
	Strategy Strategy
	// NegPerPos is s, negatives per positive (default 3).
	NegPerPos int
	// MaxPositivesPerSeed bounds positives taken from one community, 0 for
	// no bound. Large communities otherwise dominate the training set.
	MaxPositivesPerSeed int
	// UseCoreIndex draws near negatives from the community's boundary (the
	// non-core papers adjacent to its core) instead of Algorithm 1's whole
	// delete queue. Communities and positives are the same either way, and
	// every community is answered from a kpcore.CoreIndex whatever this
	// says: the field keeps its name, and exists at all, because the
	// frozen bench/ sets it on four workloads whose triples must not move
	// (ROADMAP 3(a)).
	UseCoreIndex bool
}

// withDefaults fills in the paper's default parameters.
func (c Config) withDefaults() Config {
	if c.Fraction <= 0 {
		c.Fraction = 0.3
	}
	if c.K == 0 {
		c.K = 4
	}
	if len(c.MetaPaths) == 0 {
		c.MetaPaths = []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}
	}
	if c.NegPerPos <= 0 {
		c.NegPerPos = 3
	}
	return c
}

// Report summarises a generation run for logging and the experiment
// harness.
type Report struct {
	Seeds          int
	Communities    int // seeds whose community had at least one positive
	Triples        int
	CoveredPapers  int // distinct papers appearing in any triple
	MeanCommunity  float64
	MeanNearPool   float64
	EmptyCommunity int // seeds with no positives
	EmptyNearPool  int // seeds that fell back to random negatives
	Strategy       Strategy
	NegPerPos      int
}

// Generate produces the training triples for graph g using rng for all
// sampling decisions. The same (g, cfg, seed) always yields the same
// triples.
func Generate(g *hetgraph.Graph, cfg Config, rng *rand.Rand) ([]Triple, *Report) {
	cfg = cfg.withDefaults()
	papers := g.NodesOfType(hetgraph.Paper)
	if len(papers) == 0 {
		return nil, &Report{Strategy: cfg.Strategy, NegPerPos: cfg.NegPerPos}
	}

	// (1) Seed papers selection: simple random sample of r = f·|V(P)|.
	r := int(cfg.Fraction * float64(len(papers)))
	if r < 1 {
		r = 1
	}
	if r > len(papers) {
		r = len(papers)
	}
	seeds := samplePapers(papers, r, rng)

	rep := &Report{Seeds: len(seeds), Strategy: cfg.Strategy, NegPerPos: cfg.NegPerPos}
	var triples []Triple
	covered := map[hetgraph.NodeID]bool{}

	indexes := make([]*kpcore.CoreIndex, len(cfg.MetaPaths))
	for i, mp := range cfg.MetaPaths {
		indexes[i] = kpcore.NewCoreIndex(g, cfg.K, mp)
	}

	for _, seed := range seeds {
		com := kpcore.SearchMultiIndexed(indexes, seed, cfg.UseCoreIndex)
		rep.MeanCommunity += float64(len(com.Members))
		rep.MeanNearPool += float64(len(com.Near))

		// (2) Positive samples: community members except the seed itself
		// (Definition 6, plus the extension papers of §III-A).
		var pos []hetgraph.NodeID
		for _, p := range com.Members {
			if p != seed {
				pos = append(pos, p)
			}
		}
		if len(pos) == 0 {
			rep.EmptyCommunity++
			continue
		}
		rep.Communities++
		if cfg.MaxPositivesPerSeed > 0 && len(pos) > cfg.MaxPositivesPerSeed {
			rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
			pos = pos[:cfg.MaxPositivesPerSeed]
		}

		// Negative pool per strategy.
		nearPool := com.Near
		if cfg.Strategy == NearNegative && len(nearPool) == 0 {
			rep.EmptyNearPool++
		}

		for _, p := range pos {
			for s := 0; s < cfg.NegPerPos; s++ {
				neg, ok := drawNegative(cfg.Strategy, com, nearPool, papers, rng)
				if !ok {
					continue
				}
				triples = append(triples, Triple{Pos: p, Seed: seed, Neg: neg})
				covered[p] = true
				covered[seed] = true
				covered[neg] = true
			}
		}
	}

	if rep.Seeds > 0 {
		rep.MeanCommunity /= float64(rep.Seeds)
		rep.MeanNearPool /= float64(rep.Seeds)
	}
	rep.Triples = len(triples)
	rep.CoveredPapers = len(covered)
	return triples, rep
}

// drawNegative picks one negative for the community, falling back from the
// near pool to uniform sampling when the pool is empty.
func drawNegative(st Strategy, com *kpcore.Community, nearPool, papers []hetgraph.NodeID,
	rng *rand.Rand) (hetgraph.NodeID, bool) {
	if st == NearNegative && len(nearPool) > 0 {
		return nearPool[rng.Intn(len(nearPool))], true
	}
	// Random negative: rejection-sample a paper outside the community.
	// Communities are small relative to the corpus, so this terminates
	// quickly; cap attempts to stay robust on degenerate graphs.
	for attempt := 0; attempt < 64; attempt++ {
		p := papers[rng.Intn(len(papers))]
		if !com.Contains(p) {
			return p, true
		}
	}
	return 0, false
}

// samplePapers draws n distinct papers uniformly via a partial
// Fisher-Yates shuffle of a copy.
func samplePapers(papers []hetgraph.NodeID, n int, rng *rand.Rand) []hetgraph.NodeID {
	cp := make([]hetgraph.NodeID, len(papers))
	copy(cp, papers)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(cp)-i)
		cp[i], cp[j] = cp[j], cp[i]
	}
	return cp[:n]
}
