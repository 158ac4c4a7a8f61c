package metrics

import (
	"math"
	"testing"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

func ids(xs ...int) []hetgraph.NodeID {
	out := make([]hetgraph.NodeID, len(xs))
	for i, x := range xs {
		out[i] = hetgraph.NodeID(x)
	}
	return out
}

func truth(xs ...int) map[hetgraph.NodeID]bool {
	out := map[hetgraph.NodeID]bool{}
	for _, x := range xs {
		out[hetgraph.NodeID(x)] = true
	}
	return out
}

func TestPrecisionAtN(t *testing.T) {
	tr := truth(1, 2, 3)
	if got := PrecisionAtN(ids(1, 2, 9, 8, 7), tr, 5); got != 0.4 {
		t.Errorf("P@5 = %v, want 0.4", got)
	}
	// Shorter return list: missing ranks count against the denominator.
	if got := PrecisionAtN(ids(1), tr, 5); got != 0.2 {
		t.Errorf("P@5 with 1 returned = %v, want 0.2", got)
	}
	if got := PrecisionAtN(ids(1, 2, 3, 9), tr, 2); got != 1.0 {
		t.Errorf("P@2 = %v, want 1 (only first 2 considered)", got)
	}
	if PrecisionAtN(nil, tr, 0) != 0 {
		t.Error("n=0 must be 0")
	}
}

func TestAveragePrecisionKnownValue(t *testing.T) {
	// Returned: [hit, miss, hit], truth size 2.
	// AP = (1/1 + 2/3)/2 = 5/6.
	got := AveragePrecision(ids(1, 9, 2), truth(1, 2))
	if math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("AP = %v, want %v", got, 5.0/6)
	}
	// Truth larger than returned list: AP penalised by N.
	got = AveragePrecision(ids(1), truth(1, 2, 3, 4))
	if math.Abs(got-0.25) > 1e-12 {
		t.Errorf("AP = %v, want 0.25", got)
	}
	if AveragePrecision(ids(1), map[hetgraph.NodeID]bool{}) != 0 {
		t.Error("empty truth must give 0")
	}
	if AveragePrecision(nil, truth(1)) != 0 {
		t.Error("empty return must give 0")
	}
}

func TestAveragePrecisionPerfectRanking(t *testing.T) {
	// All truth returned first: AP = 1.
	got := AveragePrecision(ids(1, 2, 3), truth(1, 2, 3))
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect AP = %v", got)
	}
}

func TestMAP(t *testing.T) {
	if MAP(nil) != 0 {
		t.Error("MAP of nothing must be 0")
	}
	if got := MAP([]float64{0.2, 0.4}); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MAP = %v, want 0.3", got)
	}
}

func TestADS(t *testing.T) {
	g := hetgraph.New()
	a1 := g.AddNode(hetgraph.Author, "")
	a2 := g.AddNode(hetgraph.Author, "")
	p1 := g.AddNode(hetgraph.Paper, "")
	p2 := g.AddNode(hetgraph.Paper, "")
	p3 := g.AddNode(hetgraph.Paper, "")
	g.MustAddEdge(a1, p1, hetgraph.Write)
	g.MustAddEdge(a1, p2, hetgraph.Write)
	g.MustAddEdge(a2, p3, hetgraph.Write)

	ids := []hetgraph.NodeID{p1, p2, p3}
	rows, err := vec.Matrix32Of(3, 2, []float32{1, 0, 0, 1, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{1, 0}
	// a1: mean cos = (1 + 0)/2 = 0.5; a2: 1. ADS = (0.5+1)/2 = 0.75.
	got := ADS(g, []hetgraph.NodeID{a1, a2}, ids, rows, q)
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("ADS = %v, want 0.75", got)
	}
	if ADS(g, nil, ids, rows, q) != 0 {
		t.Error("ADS of no experts must be 0")
	}
	// Expert whose papers are not embedded contributes 0.
	a3 := g.AddNode(hetgraph.Author, "")
	p4 := g.AddNode(hetgraph.Paper, "")
	g.MustAddEdge(a3, p4, hetgraph.Write)
	got = ADS(g, []hetgraph.NodeID{a3}, ids, rows, q)
	if got != 0 {
		t.Errorf("ADS with unembedded papers = %v, want 0", got)
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	for _, c := range []struct {
		b    []float32
		want float64
	}{
		{[]float32{0, 1}, 0},   // orthogonal
		{[]float32{2, 0}, 1},   // parallel
		{[]float32{-3, 0}, -1}, // antiparallel
		{[]float32{0, 0}, 0},   // a zero vector
	} {
		if got := cosine(a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("cosine(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}
