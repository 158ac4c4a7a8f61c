// Package metrics implements the IR effectiveness measures of §VI-A:
// precision at rank n (P@n), average precision (AP) and its mean over
// queries (MAP), and the average document similarity (ADS) of the returned
// experts' papers to the query.
package metrics

import (
	"math"
	"slices"

	"expertfind/internal/hetgraph"
	"expertfind/internal/vec"
)

// PrecisionAtN returns P@n: the fraction of the first n returned experts
// that appear in the ground-truth set. If fewer than n experts were
// returned, the missing ranks count as incorrect (the denominator stays n),
// matching the paper's #correct/n estimate.
func PrecisionAtN(returned []hetgraph.NodeID, truth map[hetgraph.NodeID]bool, n int) float64 {
	if n <= 0 {
		return 0
	}
	if len(returned) > n {
		returned = returned[:n]
	}
	correct := 0
	for _, a := range returned {
		if truth[a] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// AveragePrecision returns AP = Σ_i (P@i · I(a_i)) / N over the returned
// ranking, where I(a_i)=1 when the i-th returned expert is correct and N
// is the total number of correct experts for the query.
func AveragePrecision(returned []hetgraph.NodeID, truth map[hetgraph.NodeID]bool) float64 {
	n := len(truth)
	if n == 0 {
		return 0
	}
	var sum float64
	correct := 0
	for i, a := range returned {
		if truth[a] {
			correct++
			sum += float64(correct) / float64(i+1)
		}
	}
	return sum / float64(n)
}

// MAP returns the mean of per-query average precisions. Empty input
// yields 0.
func MAP(aps []float64) float64 {
	if len(aps) == 0 {
		return 0
	}
	var s float64
	for _, a := range aps {
		s += a
	}
	return s / float64(len(aps))
}

// ADS returns the average document similarity of the returned experts'
// papers to the query representation:
// Σ_i Σ_{p ∈ P(a_i)} sim(p, T) / |P(a_i)| / n, with sim the cosine
// similarity of the papers' rows in a reference space of the papers ids
// (ascending), row i of rows representing ids[i]. Experts with no paper
// in the space contribute 0.
func ADS(g *hetgraph.Graph, experts []hetgraph.NodeID,
	ids []hetgraph.NodeID, rows *vec.Matrix32, query []float32) float64 {
	if len(experts) == 0 {
		return 0
	}
	var total float64
	for _, a := range experts {
		papers := g.PapersOf(a)
		var s float64
		cnt := 0
		for _, p := range papers {
			if i, ok := slices.BinarySearch(ids, p); ok {
				s += cosine(query, rows.Row(i))
				cnt++
			}
		}
		if cnt > 0 {
			total += s / float64(cnt)
		}
	}
	return total / float64(len(experts))
}

// cosine returns the cosine similarity of a and b, in [-1, 1], taken in
// float64 over the widened components: each of the three sums adds its
// rounded products in index order. Zero vectors have similarity 0.
func cosine(a, b []float32) float64 {
	var ab, aa, bb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		ab += float64(x * y)
		aa += float64(x * x)
		bb += float64(y * y)
	}
	na, nb := math.Sqrt(aa), math.Sqrt(bb)
	if na == 0 || nb == 0 {
		return 0
	}
	return ab / (na * nb)
}
