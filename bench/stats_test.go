package main

import (
	"math"
	"testing"
)

func TestFastestRepetitionIgnoresASlowStretch(t *testing.T) {
	// A sequence of 4 operations, position p costing p+1 ms, repeated for
	// 5 passes; the neighbour doubles everything during passes 1 to 3 and
	// stalls one operation of pass 4. Each position still reads its own
	// cost, where the median over all samples reads the neighbour.
	ops := []op{{}, {}, {write: true}, {}}
	var p phaseResult
	var all []float64
	for pass := 0; pass < 5; pass++ {
		for pos, o := range ops {
			ms := float64(pos + 1)
			if pass >= 1 && pass <= 3 {
				ms *= 2
			}
			if pass == 4 && pos == 0 {
				ms = 50
			}
			p.samples = append(p.samples, sample{pos, o.write, ms})
			all = append(all, ms)
		}
	}
	best := bestOf(p.samples)
	for pos := range ops {
		if best[pos] != float64(pos+1) {
			t.Errorf("bestOf position %d = %v, want %v", pos, best[pos], pos+1)
		}
	}
	q := p.quiet(ops)
	if got := median(q.reads); got != 2 {
		t.Errorf("median of the reads' fastest repetitions = %v, want 2 (reads cost 1, 2, 4)", got)
	}
	if got := median(all); got == 2 {
		t.Errorf("median of all samples = %v; the test needs interference that moves it", got)
	}
	// Two closed-loop clients, 3 reads, 1+2+3+4 ms of work per pass: the
	// pass takes 5 ms, so 600 reads a second.
	if got := q.qps(2); got != 600 {
		t.Errorf("qps = %v, want 600", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if minTailSamples != 1000 {
		t.Errorf("minTailSamples = %d, but p99 needs 1000 samples for ten beyond it", minTailSamples)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(v, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	got := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if want := (31 - 3.5) / 13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{10}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of three values = %v, want (max-min)/median = 0.2", got)
	}
}

func TestCoveredIsTheUnionOfChildren(t *testing.T) {
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 200}}
	if got := covered(kids, 0, 100); got != 70 {
		t.Errorf("covered = %d, want 30 (10..40) + 40 (60..100)", got)
	}
}
