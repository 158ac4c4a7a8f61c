package sampling

import (
	"math/rand"
	"slices"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
	"expertfind/internal/kpcore"
)

func TestStrategyString(t *testing.T) {
	if NearNegative.String() != "near" || RandomNegative.String() != "random" {
		t.Error("strategy names wrong")
	}
}

func TestGenerateEmptyGraph(t *testing.T) {
	g := hetgraph.New()
	triples, rep := Generate(g, Config{}, rand.New(rand.NewSource(1)))
	if len(triples) != 0 || rep.Triples != 0 {
		t.Error("empty graph produced triples")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testgraph.Random(rng, 80, 30, 3, 3)
	cfg := Config{K: 2, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP}}
	t1, _ := Generate(g, cfg, rand.New(rand.NewSource(9)))
	t2, _ := Generate(g, cfg, rand.New(rand.NewSource(9)))
	if len(t1) != len(t2) {
		t.Fatalf("lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("triple %d differs", i)
		}
	}
}

// TestTripleValidity checks Definitions 6 and 7 against an independent
// community search: positives are community members, negatives are not.
func TestTripleValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testgraph.Random(rng, 120, 90, 3, 2)
	cfg := Config{K: 3, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP}, Fraction: 0.2, NegPerPos: 2}
	triples, rep := Generate(g, cfg, rand.New(rand.NewSource(11)))
	if len(triples) == 0 {
		t.Fatal("no triples generated")
	}
	if rep.Triples != len(triples) {
		t.Errorf("report says %d triples, got %d", rep.Triples, len(triples))
	}
	coms := map[hetgraph.NodeID]*kpcore.Community{}
	for _, tr := range triples {
		com := coms[tr.Seed]
		if com == nil {
			com = kpcore.SearchMulti(g, tr.Seed, cfg.K, cfg.MetaPaths)
			coms[tr.Seed] = com
		}
		if !com.Contains(tr.Pos) {
			t.Fatalf("positive %d not in the community of seed %d", tr.Pos, tr.Seed)
		}
		if tr.Pos == tr.Seed {
			t.Fatal("positive equals seed")
		}
		if com.Contains(tr.Neg) {
			t.Fatalf("negative %d inside the community of seed %d", tr.Neg, tr.Seed)
		}
		if g.Type(tr.Pos) != hetgraph.Paper || g.Type(tr.Neg) != hetgraph.Paper {
			t.Fatal("triple contains a non-paper node")
		}
	}
}

func TestNegPerPosRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testgraph.Random(rng, 120, 90, 3, 2)
	for _, s := range []int{1, 2, 4} {
		cfg := Config{K: 3, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP}, Fraction: 0.2, NegPerPos: s}
		triples, _ := Generate(g, cfg, rand.New(rand.NewSource(13)))
		if len(triples) == 0 {
			t.Fatal("no triples generated")
		}
		// Count triples per (seed, pos) pair: must be exactly s when a
		// negative could be drawn (always true on this graph).
		counts := map[[2]hetgraph.NodeID]int{}
		for _, tr := range triples {
			counts[[2]hetgraph.NodeID{tr.Seed, tr.Pos}]++
		}
		for k, c := range counts {
			if c != s {
				t.Fatalf("s=%d: pair %v has %d negatives", s, k, c)
			}
		}
	}
}

func TestMaxPositivesPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testgraph.Random(rng, 60, 25, 3, 3)
	cfg := Config{K: 1, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP},
		Fraction: 0.1, NegPerPos: 1, MaxPositivesPerSeed: 2}
	triples, _ := Generate(g, cfg, rand.New(rand.NewSource(17)))
	perSeed := map[hetgraph.NodeID]map[hetgraph.NodeID]bool{}
	for _, tr := range triples {
		if perSeed[tr.Seed] == nil {
			perSeed[tr.Seed] = map[hetgraph.NodeID]bool{}
		}
		perSeed[tr.Seed][tr.Pos] = true
	}
	for s, pos := range perSeed {
		if len(pos) > 2 {
			t.Fatalf("seed %d has %d positives, cap is 2", s, len(pos))
		}
	}
}

func TestNearNegativesComeFromPrunedPool(t *testing.T) {
	// On Figure 2 with k=3, seeding at p1, the near pool is exactly {p5}
	// (pruned, and not re-admitted by p1's extension); every near
	// negative for seed p1 must be p5.
	g, n := testgraph.Figure2()
	com := kpcore.Search(g, n["p1"], 3, hetgraph.PAP)
	if len(com.Near) != 1 || com.Near[0] != n["p5"] {
		t.Fatalf("fixture near pool = %v, want {p5}", com.Near)
	}
	cfg := Config{K: 3, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP},
		Fraction: 1.0, Strategy: NearNegative, NegPerPos: 1}
	triples, _ := Generate(g, cfg, rand.New(rand.NewSource(2)))
	sawP1 := false
	for _, tr := range triples {
		if tr.Seed != n["p1"] {
			continue
		}
		sawP1 = true
		if tr.Neg != n["p5"] {
			t.Fatalf("negative for seed p1 = %d, want p5 (%d)", tr.Neg, n["p5"])
		}
	}
	if !sawP1 {
		t.Fatal("no triples for seed p1 (fraction 1.0 should cover it)")
	}
}

func TestReportCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := testgraph.Random(rng, 120, 90, 3, 2)
	cfg := Config{K: 3, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP}, Fraction: 0.3}
	triples, rep := Generate(g, cfg, rand.New(rand.NewSource(23)))
	if len(triples) == 0 {
		t.Fatal("no triples generated")
	}
	covered := map[hetgraph.NodeID]bool{}
	for _, tr := range triples {
		covered[tr.Pos] = true
		covered[tr.Seed] = true
		covered[tr.Neg] = true
	}
	if rep.CoveredPapers != len(covered) {
		t.Errorf("CoveredPapers = %d, want %d", rep.CoveredPapers, len(covered))
	}
	if rep.Seeds == 0 || rep.MeanCommunity <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
}

func TestDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Fraction != 0.3 || cfg.K != 4 || cfg.NegPerPos != 3 || len(cfg.MetaPaths) != 2 {
		t.Errorf("paper defaults wrong: %+v", cfg)
	}
}

func TestUseCoreIndexEquivalentCommunities(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testgraph.Random(rng, 120, 90, 3, 2)
	base := Config{K: 3, MetaPaths: []hetgraph.MetaPath{hetgraph.PAP}, Fraction: 0.3, NegPerPos: 2}
	fast := base
	fast.UseCoreIndex = true
	slow, repSlow := Generate(g, base, rand.New(rand.NewSource(11)))
	quick, repFast := Generate(g, fast, rand.New(rand.NewSource(11)))
	if repSlow.Communities != repFast.Communities || repSlow.Seeds != repFast.Seeds {
		t.Errorf("community counts differ: %+v vs %+v", repSlow, repFast)
	}
	// Positive structure is identical (same seeds, same communities from
	// the same index); the flag swaps the delete-queue pool for the
	// boundary pool, so only the drawn negatives may differ.
	type sp struct{ s, p hetgraph.NodeID }
	pairsOf := func(ts []Triple) map[sp]int {
		out := map[sp]int{}
		for _, tr := range ts {
			out[sp{tr.Seed, tr.Pos}]++
		}
		return out
	}
	a, b := pairsOf(slow), pairsOf(quick)
	if len(a) != len(b) {
		t.Fatalf("positive pair sets differ: %d vs %d", len(a), len(b))
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("pair %v count %d vs %d", k, v, b[k])
		}
	}
}

// generatePerSeed is Generate as it was before the communities came from
// a kpcore.CoreIndex: one kpcore.SearchMulti — the paper's Algorithm 1 —
// per seed, and the same draws from rng in the same order. It is the
// oracle TestGenerateMatchesPerSeedOracle holds Generate to.
func generatePerSeed(g *hetgraph.Graph, cfg Config, rng *rand.Rand) []Triple {
	cfg = cfg.withDefaults()
	papers := g.NodesOfType(hetgraph.Paper)
	r := int(cfg.Fraction * float64(len(papers)))
	if r < 1 {
		r = 1
	}
	if r > len(papers) {
		r = len(papers)
	}
	var triples []Triple
	for _, seed := range samplePapers(papers, r, rng) {
		com := kpcore.SearchMulti(g, seed, cfg.K, cfg.MetaPaths)
		var pos []hetgraph.NodeID
		for _, p := range com.Members {
			if p != seed {
				pos = append(pos, p)
			}
		}
		if len(pos) == 0 {
			continue
		}
		if cfg.MaxPositivesPerSeed > 0 && len(pos) > cfg.MaxPositivesPerSeed {
			rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
			pos = pos[:cfg.MaxPositivesPerSeed]
		}
		for _, p := range pos {
			for s := 0; s < cfg.NegPerPos; s++ {
				if neg, ok := drawNegative(cfg.Strategy, com, com.Near, papers, rng); ok {
					triples = append(triples, Triple{Pos: p, Seed: seed, Neg: neg})
				}
			}
		}
	}
	return triples
}

// TestGenerateMatchesPerSeedOracle: the indexed communities are
// Algorithm 1's, so the triples — every positive, every negative, in
// order — are the ones a per-seed search yields.
func TestGenerateMatchesPerSeedOracle(t *testing.T) {
	graphs := map[string]*hetgraph.Graph{
		"random": testgraph.Random(rand.New(rand.NewSource(7)), 150, 60, 4, 3),
		"aminer": dataset.Generate(dataset.AminerSim(300)).Graph,
	}
	for name, g := range graphs {
		for _, st := range []Strategy{NearNegative, RandomNegative} {
			for _, maxPos := range []int{0, 8} {
				// The paper's defaults otherwise: k=4 over P-A-P ∩ P-T-P.
				cfg := Config{Strategy: st, MaxPositivesPerSeed: maxPos, NegPerPos: 2}
				got, _ := Generate(g, cfg, rand.New(rand.NewSource(11)))
				want := generatePerSeed(g, cfg, rand.New(rand.NewSource(11)))
				if len(want) == 0 {
					t.Fatalf("%s/%s/max=%d: the oracle generated no triples", name, st, maxPos)
				}
				if !slices.Equal(got, want) {
					t.Errorf("%s/%s/max=%d: %d triples differ from the per-seed oracle's %d",
						name, st, maxPos, len(got), len(want))
				}
			}
		}
	}
}
