package ta

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"expertfind/internal/ctxtest"
	"expertfind/internal/hetgraph"
	"expertfind/internal/hetgraph/testgraph"
)

func TestContributionWeightZipf(t *testing.T) {
	// Eq. 5 with 3 authors: H(3) = 1 + 1/2 + 1/3 = 11/6.
	h3 := 1.0 + 0.5 + 1.0/3
	for rank, want := range map[int]float64{1: 1 / h3, 2: 1 / (2 * h3), 3: 1 / (3 * h3)} {
		if got := ContributionWeight(rank, 3); math.Abs(got-want) > 1e-12 {
			t.Errorf("w(rank %d) = %v, want %v", rank, got, want)
		}
	}
	if ContributionWeight(0, 3) != 0 || ContributionWeight(4, 3) != 0 || ContributionWeight(1, 0) != 0 {
		t.Error("out-of-range ranks must weigh 0")
	}
}

// Property: author contributions of one paper sum to 1 (Zipf normalised
// by the harmonic number), so papers contribute equally regardless of
// author count.
func TestContributionWeightsSumToOne(t *testing.T) {
	f := func(n uint8) bool {
		num := int(n%20) + 1
		var sum float64
		for r := 1; r <= num; r++ {
			sum += ContributionWeight(r, num)
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpertScore(t *testing.T) {
	// S(a,p) = w(a,p)/I(p).
	w := ContributionWeight(2, 3)
	if got := ExpertScore(4, 2, 3); math.Abs(got-w/4) > 1e-12 {
		t.Errorf("ExpertScore = %v, want %v", got, w/4)
	}
	if ExpertScore(0, 1, 1) != 0 {
		t.Error("paper rank 0 must score 0")
	}
}

func buildScoredGraph() (*hetgraph.Graph, []hetgraph.NodeID) {
	g, n := testgraph.Figure2()
	// Retrieved ranking: p4, p1, p5, p2.
	return g, []hetgraph.NodeID{n["p4"], n["p1"], n["p5"], n["p2"]}
}

func TestFullScanScores(t *testing.T) {
	g, papers := buildScoredGraph()
	ranked := TopExpertsFullScan(g, papers, 0)
	if len(ranked) == 0 {
		t.Fatal("no experts")
	}
	// Scores descending.
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].Score < ranked[i].Score {
			t.Fatal("full scan not sorted")
		}
	}
	// Recompute one score by hand: a0 is rank-1 author of p4 (2 authors
	// on p4: a0, a2) at paper rank 1; rank-1 of p1 (authors a0, a1) at
	// paper rank 2; rank-1 of p2 at paper rank 4.
	want := ExpertScore(1, 1, 2) + ExpertScore(2, 1, 2) + ExpertScore(4, 1, 2)
	var a0 hetgraph.NodeID = -1
	for _, r := range ranked {
		if g.Label(r.Expert) == "author a0" {
			a0 = r.Expert
			if math.Abs(r.Score-want) > 1e-12 {
				t.Errorf("R(a0) = %v, want %v", r.Score, want)
			}
		}
	}
	if a0 < 0 {
		t.Fatal("a0 missing from candidates")
	}
}

func TestTAMatchesFullScanOnFigure2(t *testing.T) {
	g, papers := buildScoredGraph()
	for n := 1; n <= 6; n++ {
		taRes, st := TopExperts(g, papers, n)
		fsRes := TopExpertsFullScan(g, papers, n)
		if len(taRes) != len(fsRes) {
			t.Fatalf("n=%d: TA %d experts, full scan %d", n, len(taRes), len(fsRes))
		}
		for i := range taRes {
			if taRes[i].Expert != fsRes[i].Expert ||
				math.Abs(taRes[i].Score-fsRes[i].Score) > 1e-9 {
				t.Fatalf("n=%d rank %d: TA %+v != full scan %+v", n, i, taRes[i], fsRes[i])
			}
		}
		if st.Candidates == 0 {
			t.Error("stats missing candidates")
		}
	}
}

// A cancelled context ends the run at the next poll — at most pollEvery
// papers later — with ctx.Err(), no partial ranking and the stats of the
// work actually done.
func TestTopExpertsHonoursContext(t *testing.T) {
	g := hetgraph.New()
	var ranked []hetgraph.NodeID
	for i := 0; i < 3*pollEvery+10; i++ {
		p := g.AddNode(hetgraph.Paper, "")
		for k := 0; k < 2; k++ {
			g.MustAddEdge(g.AddNode(hetgraph.Author, ""), p, hetgraph.Write)
		}
		ranked = append(ranked, p)
	}
	const polls = 4 // before papers 0, 256, 512 and 768
	for after := int64(1); after <= polls; after++ {
		ctx := ctxtest.New(after)
		out, st, err := TopExpertsCtx(ctx, g, ranked, 5)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Fatalf("cancelled at poll %d: ranking %v, err %v", after, out, err)
		}
		if want := int(after-1) * pollEvery * 2; ctx.Polls() != after || st.SortedAccesses != want {
			t.Errorf("cancelled at poll %d: returned after %d polls and %d entries, want %d",
				after, ctx.Polls(), st.SortedAccesses, want)
		}
	}
	ctx := ctxtest.New(polls + 1)
	if out, _, err := TopExpertsCtx(ctx, g, ranked, 5); err != nil || len(out) != 5 || ctx.Polls() != polls {
		t.Errorf("live context: %d experts, err %v, %d polls", len(out), err, ctx.Polls())
	}
}

func TestTAEdgeCases(t *testing.T) {
	g, papers := buildScoredGraph()
	if res, _ := TopExperts(g, papers, 0); res != nil {
		t.Error("n=0 returned experts")
	}
	if res, _ := TopExperts(g, nil, 5); res != nil {
		t.Error("no retrieved papers returned experts")
	}
	// n larger than the candidate pool returns everyone.
	res, _ := TopExperts(g, papers, 100)
	fs := TopExpertsFullScan(g, papers, 100)
	if len(res) != len(fs) {
		t.Errorf("overshoot n: TA %d vs full scan %d", len(res), len(fs))
	}
}

func TestPaperWithNoAuthors(t *testing.T) {
	g := hetgraph.New()
	p := g.AddNode(hetgraph.Paper, "orphan")
	a := g.AddNode(hetgraph.Author, "x")
	p2 := g.AddNode(hetgraph.Paper, "authored")
	g.MustAddEdge(a, p2, hetgraph.Write)
	res, _ := TopExperts(g, []hetgraph.NodeID{p, p2}, 5)
	if len(res) != 1 || res[0].Expert != a {
		t.Errorf("res = %+v", res)
	}
}
