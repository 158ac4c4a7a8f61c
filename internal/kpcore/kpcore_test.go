package kpcore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
)

// kCore returns the papers whose core number is at least k, sorted: the
// global (k,P)-core of Definition 5, read off d's core numbers.
func kCore(d *Decomposition, k int) []hetgraph.NodeID {
	var out []hetgraph.NodeID
	for p, c := range d.CoreNumber {
		if c >= k {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// inCore reports whether p is a strict core member of c.
func inCore(c *Community, p hetgraph.NodeID) bool {
	_, ok := slices.BinarySearch(c.Core, p)
	return ok
}

func asNames(n map[string]hetgraph.NodeID, ids []hetgraph.NodeID) []string {
	rev := map[hetgraph.NodeID]string{}
	for name, id := range n {
		rev[id] = name
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = rev[id]
	}
	sort.Strings(out)
	return out
}

func equalStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestExample4 replays the paper's Example 4: searching from p4 with k=3,
// P=P-A-P yields the strict core {p1,p2,p3,p4}, prunes p5, and the
// extension re-admits p5, giving the community {p1..p5}.
func TestExample4(t *testing.T) {
	g, n := testgraph.Figure2()
	com := Search(g, n["p4"], 3, hetgraph.PAP)

	if got, want := asNames(n, com.Core), []string{"p1", "p2", "p3", "p4"}; !equalStr(got, want) {
		t.Errorf("core = %v, want %v", got, want)
	}
	if got, want := asNames(n, com.Members), []string{"p1", "p2", "p3", "p4", "p5"}; !equalStr(got, want) {
		t.Errorf("members = %v, want %v", got, want)
	}
	if !com.Contains(n["p5"]) {
		t.Error("extension lost p5")
	}
	if inCore(com, n["p5"]) {
		t.Error("p5 must not be in the strict core (deg=2 < 3)")
	}
	// p5 is pruned during the search but re-admitted by the extension, so
	// it must NOT be in the near pool (members and near negatives are
	// disjoint).
	for _, v := range com.Near {
		if v == n["p5"] {
			t.Error("p5 is a member and must not be a near negative")
		}
		if v == n["p10"] {
			t.Error("p10 reached although not P-connected to p4")
		}
	}

	// Seeding at p1 instead: p5 is pruned and stays outside the
	// community, so it is the near pool.
	com1 := Search(g, n["p1"], 3, hetgraph.PAP)
	if got, want := asNames(n, com1.Near), []string{"p5"}; !equalStr(got, want) {
		t.Errorf("near pool from p1 = %v, want %v", got, want)
	}
}

// TestExample3Cores replays Example 3: the k-core sizes of Figure 2 for
// k = 0..3 on the full projection.
func TestExample3Cores(t *testing.T) {
	g, n := testgraph.Figure2()
	d := Decompose(hetgraph.Project(g, hetgraph.PAP))
	if got := len(kCore(d, 0)); got != 10 {
		t.Errorf("|0-core| = %d, want 10 (all papers, even p10)", got)
	}
	if got := len(kCore(d, 1)); got != 9 {
		t.Errorf("|1-core| = %d, want 9 (all but p10)", got)
	}
	if got, want := asNames(n, kCore(d, 3)), []string{"p1", "p2", "p3", "p4"}; !equalStr(got, want) {
		t.Errorf("3-core = %v, want %v", got, want)
	}
}

func TestSearchSeedBelowK(t *testing.T) {
	g, n := testgraph.Figure2()
	// Seeding at p5 (deg 2) with k=3: p5 itself is pruned but the search
	// still reaches the {p1..p4} core through p4; extension keeps p5's
	// neighbours p4 and p6.
	com := Search(g, n["p5"], 3, hetgraph.PAP)
	if got, want := asNames(n, com.Core), []string{"p1", "p2", "p3", "p4"}; !equalStr(got, want) {
		t.Errorf("core = %v, want %v", got, want)
	}
	for _, name := range []string{"p4", "p5", "p6"} {
		if !com.Contains(n[name]) {
			t.Errorf("members %v missing %s", asNames(n, com.Members), name)
		}
	}
}

func TestSearchK0IsComponent(t *testing.T) {
	g, n := testgraph.Figure2()
	com := Search(g, n["p4"], 0, hetgraph.PAP)
	if len(com.Core) != 9 {
		t.Errorf("0-core around p4 has %d members, want 9 (the component)", len(com.Core))
	}
	if com.Contains(n["p10"]) {
		t.Error("p10 should be unreachable")
	}
}

func TestSearchIsolatedSeed(t *testing.T) {
	g, n := testgraph.Figure2()
	com := Search(g, n["p10"], 3, hetgraph.PAP)
	if len(com.Core) != 0 {
		t.Errorf("isolated seed core = %v, want empty", com.Core)
	}
	if got, want := asNames(n, com.Members), []string{"p10"}; !equalStr(got, want) {
		t.Errorf("members = %v, want just the seed", got)
	}
}

func TestSearchValidatesInput(t *testing.T) {
	g, n := testgraph.Figure2()
	for _, fn := range []func(){
		func() { Search(g, n["a0"], 3, hetgraph.PAP) },
		func() { Search(g, n["p1"], -1, hetgraph.PAP) },
		func() { Search(g, n["p1"], 3, hetgraph.MustParseMetaPath("A-P-A")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid input did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestTheorem1OnFigure2 checks FastBCore and Algorithm 1 agree on the
// running example for all k.
func TestTheorem1OnFigure2(t *testing.T) {
	g, n := testgraph.Figure2()
	for k := 0; k <= 5; k++ {
		ours := Search(g, n["p4"], k, hetgraph.PAP).Core
		fb := FastBCore(g, n["p4"], k, hetgraph.PAP)
		if !equalIDs(ours, fb) {
			t.Errorf("k=%d: ours %v != FastBCore %v", k, asNames(n, ours), asNames(n, fb))
		}
	}
}

func equalIDs(a, b []hetgraph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCoreValidity: every strict core member must keep >= k P-neighbours
// inside the core (Definition 5), on random graphs.
func TestCoreValidityOnRandomGraphs(t *testing.T) {
	mp := hetgraph.PAP
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testgraph.Random(rng, 60, 25, 3, 3)
		papers := g.NodesOfType(hetgraph.Paper)
		seedPaper := papers[rng.Intn(len(papers))]
		for k := 1; k <= 4; k++ {
			com := Search(g, seedPaper, k, mp)
			in := map[hetgraph.NodeID]bool{}
			for _, v := range com.Core {
				in[v] = true
			}
			for _, v := range com.Core {
				deg := 0
				g.ForEachPNeighbor(v, mp, func(u hetgraph.NodeID) bool {
					if in[u] {
						deg++
					}
					return true
				})
				if deg < k {
					t.Fatalf("seed %d k=%d: core member %d has in-core degree %d", seed, k, v, deg)
				}
			}
		}
	}
}

// TestAlgorithmAgreementOnRandomGraphs cross-checks the three searches.
// Algorithm 1's core is always a subset of FastBCore's (its pruning can
// only drop regions reachable solely through sub-k nodes — see the
// Theorem 1 caveat in DESIGN.md), and FastBCore must equal the naive
// projection-based oracle exactly.
func TestAlgorithmAgreementOnRandomGraphs(t *testing.T) {
	mp := hetgraph.PAP
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testgraph.Random(rng, 50, 20, 3, 3)
		papers := g.NodesOfType(hetgraph.Paper)
		seedPaper := papers[rng.Intn(len(papers))]
		for k := 1; k <= 4; k++ {
			ours := Search(g, seedPaper, k, mp).Core
			fb := FastBCore(g, seedPaper, k, mp)
			naive := NaiveSearch(g, seedPaper, k, mp)
			if !equalIDs(fb, naive) {
				t.Fatalf("seed %d k=%d: FastBCore %v != naive %v", seed, k, fb, naive)
			}
			if !subsetIDs(ours, fb) {
				t.Fatalf("seed %d k=%d: ours %v not subset of FastBCore %v", seed, k, ours, fb)
			}
		}
	}
}

func subsetIDs(a, b []hetgraph.NodeID) bool {
	set := map[hetgraph.NodeID]bool{}
	for _, v := range b {
		set[v] = true
	}
	for _, v := range a {
		if !set[v] {
			return false
		}
	}
	return true
}

// TestTheorem1OnDatasets asserts full equality on realistic academic
// networks, where cores are reachable through high-degree regions.
func TestTheorem1OnDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	ds := dataset.Generate(dataset.AminerSim(300))
	g := ds.Graph
	rng := rand.New(rand.NewSource(4))
	papers := g.NodesOfType(hetgraph.Paper)
	for i := 0; i < 10; i++ {
		s := papers[rng.Intn(len(papers))]
		for _, mp := range []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP, hetgraph.PP} {
			ours := Search(g, s, 4, mp).Core
			fb := FastBCore(g, s, 4, mp)
			if !equalIDs(ours, fb) {
				t.Fatalf("seed paper %d, %s: Theorem 1 equality violated (%d vs %d members)",
					s, mp, len(ours), len(fb))
			}
		}
	}
}

func TestDecomposeCoreNumbersMonotone(t *testing.T) {
	// k-cores must be nested: the (k+1)-core is inside the k-core.
	rng := rand.New(rand.NewSource(11))
	g := testgraph.Random(rng, 60, 25, 3, 3)
	d := Decompose(hetgraph.Project(g, hetgraph.PAP))
	for k := 0; k < 5; k++ {
		if !subsetIDs(kCore(d, k+1), kCore(d, k)) {
			t.Fatalf("%d-core not inside the %d-core", k+1, k)
		}
	}
}

func TestDecomposeAgainstPeeling(t *testing.T) {
	// Core numbers from the O(m) bucket algorithm must match a direct
	// peel at each k.
	rng := rand.New(rand.NewSource(13))
	g := testgraph.Random(rng, 40, 15, 2, 3)
	h := hetgraph.Project(g, hetgraph.PAP)
	d := Decompose(h)
	for k := 1; k <= 4; k++ {
		want := peelAll(h, k)
		got := kCore(d, k)
		if !equalIDs(got, want) {
			t.Fatalf("k=%d: decomposition %v != peel %v", k, got, want)
		}
	}
}

// peelAll is an independent reference implementation: repeatedly remove
// nodes with degree < k from the whole projection.
func peelAll(h *hetgraph.HomoGraph, k int) []hetgraph.NodeID {
	alive := map[hetgraph.NodeID]bool{}
	for _, p := range h.Nodes {
		alive[p] = true
	}
	for {
		removed := false
		for _, p := range h.Nodes {
			if !alive[p] {
				continue
			}
			deg := 0
			for _, q := range h.Adj[p] {
				if alive[q] {
					deg++
				}
			}
			if deg < k {
				alive[p] = false
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	var out []hetgraph.NodeID
	for _, p := range h.Nodes {
		if alive[p] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
