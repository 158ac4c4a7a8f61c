package metrics

import (
	"fmt"
	"math/rand"
	"sort"
)

// BootstrapResult summarises a paired-bootstrap comparison of two systems
// over the same query set.
type BootstrapResult struct {
	// MeanDiff is mean(a) - mean(b) on the observed per-query scores.
	MeanDiff float64
	// CILow and CIHigh bound the 95% bootstrap confidence interval of the
	// mean difference.
	CILow, CIHigh float64
	// PValue estimates P(mean(a) <= mean(b)) under resampling: the
	// one-sided probability that system a is not better than b.
	PValue float64
	// Iterations is the number of bootstrap resamples drawn.
	Iterations int
}

// PairedBootstrap runs a one-sided paired bootstrap test on per-query
// scores (e.g. average precision): a and b are aligned by query. It
// estimates how likely the observed advantage of a over b is to vanish
// under resampling of the query set — the standard significance test for
// IR system comparisons. iters of 10000 is typical; rng makes the test
// reproducible.
func PairedBootstrap(a, b []float64, iters int, rng *rand.Rand) (BootstrapResult, error) {
	if len(a) != len(b) {
		return BootstrapResult{}, fmt.Errorf("metrics: paired bootstrap needs aligned scores (%d vs %d)", len(a), len(b))
	}
	if len(a) == 0 {
		return BootstrapResult{}, fmt.Errorf("metrics: paired bootstrap needs at least one query")
	}
	if iters <= 0 {
		iters = 10000
	}

	n := len(a)
	diffs := make([]float64, n)
	var observed float64
	for i := range a {
		diffs[i] = a[i] - b[i]
		observed += diffs[i]
	}
	observed /= float64(n)

	means := make([]float64, iters)
	notBetter := 0
	for it := 0; it < iters; it++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += diffs[rng.Intn(n)]
		}
		m := sum / float64(n)
		means[it] = m
		if m <= 0 {
			notBetter++
		}
	}
	sort.Float64s(means)
	lo := means[int(0.025*float64(iters))]
	hi := means[min(int(0.975*float64(iters)), iters-1)]

	return BootstrapResult{
		MeanDiff:   observed,
		CILow:      lo,
		CIHigh:     hi,
		PValue:     float64(notBetter) / float64(iters),
		Iterations: iters,
	}, nil
}
