package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"expertfind/internal/baselines"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/kpcore"
	"expertfind/internal/metrics"
	"expertfind/internal/sampling"
	"expertfind/internal/ta"
)

// Thin wrappers keep the algorithm table in RunCoreSearchComparison
// uniform.
func kpcoreSearch(g *hetgraph.Graph, s hetgraph.NodeID, k int, mp hetgraph.MetaPath) []hetgraph.NodeID {
	return kpcore.Search(g, s, k, mp).Core
}

func kpcoreFastB(g *hetgraph.Graph, s hetgraph.NodeID, k int, mp hetgraph.MetaPath) []hetgraph.NodeID {
	return kpcore.FastBCore(g, s, k, mp)
}

func kpcoreNaive(g *hetgraph.Graph, s hetgraph.NodeID, k int, mp hetgraph.MetaPath) []hetgraph.NodeID {
	return kpcore.NaiveSearch(g, s, k, mp)
}

// Fig7Row is one bar of Figure 7: the mean query response time of a method
// on one dataset.
type Fig7Row struct {
	Dataset string
	Method  string
	AvgMs   float64
}

// taSystem is the paper's online path with its §IV-C ranker: the engine
// retrieves the papers, the threshold-algorithm reference ranks them.
type taSystem struct{ engineSystem }

func (s taSystem) TopExperts(query string, m, n int) []ta.Ranking {
	papers, _, _ := s.e.RetrievePapers(query, m)
	r, _ := TopExpertsTA(s.e.Graph(), papers, n)
	return r
}

// RunFig7 reproduces Figure 7: mean response time of the seven baselines
// and the four Ours variants (with/without PG-Index and TA) per dataset.
// One engine is built per retrieval path; its "+TA" leg ranks the
// engine's retrieved papers through the threshold-algorithm reference
// (TopExpertsTA), the other leg is the engine's own query path, whose
// ranker (ta.TopExperts) returns the same ranking bit for bit.
func RunFig7(sc Scale) []Fig7Row {
	var out []Fig7Row
	for _, spec := range Datasets() {
		ds, queries, _ := buildDataset(spec, sc)
		g := ds.Graph
		for _, m := range baselines.All(sc.Dim, sc.Seed) {
			if err := m.Build(g); err != nil {
				panic(err)
			}
			eff := Evaluate(baselineSystem{m, g}, g, queries, sc.M, sc.N, nil)
			out = append(out, Fig7Row{Dataset: spec.Name, Method: m.Name(), AvgMs: eff.AvgMs})
		}
		for _, v := range []struct {
			withTA, withoutTA string
			usePGIndex        bool
		}{
			{"Ours-1 (PG+TA)", "Ours-2 (PG only)", true},
			{"Ours-3 (TA only)", "Ours-4 (neither)", false},
		} {
			e := buildOurs(g, sc, func(o *core.Options) { o.UsePGIndex = core.Bool(v.usePGIndex) })
			for _, sys := range []System{taSystem{engineSystem{v.withTA, e}}, WrapEngine(v.withoutTA, e)} {
				eff := Evaluate(sys, g, queries, sc.M, sc.N, nil)
				out = append(out, Fig7Row{Dataset: spec.Name, Method: sys.Name(), AvgMs: eff.AvgMs})
			}
		}
	}
	return out
}

// FormatFig7 renders RunFig7 output.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	b.WriteString("FIGURE 7 — mean query response time\n")
	fmt.Fprintf(&b, "%-8s %-20s %10s\n", "Dataset", "Method", "ms/query")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-20s %10.3f\n", r.Dataset, r.Method, r.AvgMs)
	}
	return b.String()
}

// SensitivityRow is one x-axis point of a Figure 8 sweep.
type SensitivityRow struct {
	Param string
	Value float64
	MAP   float64
	PAtN  float64 // P@5 for (a)(b)(c); P@n for (d)
	Cost  time.Duration
}

// FormatSensitivity renders a Figure 8 sweep.
func FormatSensitivity(title, costLabel string, rows []SensitivityRow) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-8s %8s %7s %7s %12s\n", "param", "value", "MAP", "P@", costLabel)
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %8.3g %7.3f %7.3f %12s\n", r.Param, r.Value, r.MAP, r.PAtN,
			r.Cost.Round(time.Microsecond))
	}
	return b.String()
}

// RunFig8a reproduces Figure 8(a): the effect of the sample ratio f on
// effectiveness and training time (Aminer-sim).
func RunFig8a(sc Scale) []SensitivityRow {
	ds, queries, ref := buildDataset(Datasets()[0], sc)
	g := ds.Graph
	var out []SensitivityRow
	for _, f := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		f := f
		e := buildOurs(g, sc, func(o *core.Options) { o.SampleFraction = f })
		eff := Evaluate(WrapEngine("Ours", e), g, queries, sc.M, sc.N, ref)
		st := e.Stats()
		out = append(out, SensitivityRow{
			Param: "f", Value: f, MAP: eff.MAP, PAtN: eff.P5,
			Cost: st.CommunityTime + st.TrainTime,
		})
	}
	return out
}

// RunFig8b reproduces Figure 8(b): the effect of the core size k on
// effectiveness and training time (Aminer-sim).
func RunFig8b(sc Scale) []SensitivityRow {
	ds, queries, ref := buildDataset(Datasets()[0], sc)
	g := ds.Graph
	var out []SensitivityRow
	for k := 2; k <= 9; k++ {
		k := k
		e := buildOurs(g, sc, func(o *core.Options) { o.K = k })
		eff := Evaluate(WrapEngine("Ours", e), g, queries, sc.M, sc.N, ref)
		st := e.Stats()
		out = append(out, SensitivityRow{
			Param: "k", Value: float64(k), MAP: eff.MAP, PAtN: eff.P5,
			Cost: st.CommunityTime + st.TrainTime,
		})
	}
	return out
}

// RunFig8c reproduces Figure 8(c): the effect of the retrieval size m on
// effectiveness and query time, over one built engine (Aminer-sim).
func RunFig8c(sc Scale) []SensitivityRow {
	ds, queries, ref := buildDataset(Datasets()[0], sc)
	g := ds.Graph
	e := buildOurs(g, sc, nil)
	var out []SensitivityRow
	for _, frac := range []float64{0.05, 0.1, 0.2, 0.5, 1.0} {
		m := int(frac * float64(sc.M))
		if m < 5 {
			m = 5
		}
		eff := Evaluate(WrapEngine("Ours", e), g, queries, m, sc.N, ref)
		out = append(out, SensitivityRow{
			Param: "m", Value: float64(m), MAP: eff.MAP, PAtN: eff.P5,
			Cost: time.Duration(eff.AvgMs * float64(time.Millisecond)),
		})
	}
	return out
}

// RunFig8d reproduces Figure 8(d): the effect of the result size n on P@n
// and query time, over one built engine (Aminer-sim).
func RunFig8d(sc Scale) []SensitivityRow {
	ds, queries, _ := buildDataset(Datasets()[0], sc)
	g := ds.Graph
	e := buildOurs(g, sc, nil)
	var out []SensitivityRow
	for _, n := range []int{5, 10, 20, 50, 100} {
		var pAtN float64
		var aps []float64
		var total time.Duration
		for _, q := range queries {
			t0 := time.Now()
			ranked, _, _ := e.TopExperts(q.Text, sc.M, n)
			total += time.Since(t0)
			ids := make([]hetgraph.NodeID, len(ranked))
			for i, r := range ranked {
				ids[i] = r.Expert
			}
			pAtN += metrics.PrecisionAtN(ids, q.Truth, n)
			aps = append(aps, metrics.AveragePrecision(ids, q.Truth))
		}
		if len(queries) > 0 {
			pAtN /= float64(len(queries))
			total /= time.Duration(len(queries))
		}
		out = append(out, SensitivityRow{Param: "n", Value: float64(n),
			MAP: metrics.MAP(aps), PAtN: pAtN, Cost: total})
	}
	return out
}

// CoreSearchComparison benchmarks the three community-search algorithms of
// §III-A on one dataset: the ablation DESIGN.md calls out for Algorithm
// 1's early pruning.
type CoreSearchComparison struct {
	Algorithm string
	AvgTime   time.Duration
	AvgCore   float64
}

// RunCoreSearchComparison times Algorithm 1, FastBCore and the naive
// projection-based search over random seeds.
func RunCoreSearchComparison(sc Scale, k int, seeds int) []CoreSearchComparison {
	ds := dataset.Generate(dataset.AminerSim(sc.Papers))
	g := ds.Graph
	rng := rand.New(rand.NewSource(sc.Seed))
	papers := g.NodesOfType(hetgraph.Paper)
	var seedPapers []hetgraph.NodeID
	for _, i := range rng.Perm(len(papers))[:min(seeds, len(papers))] {
		seedPapers = append(seedPapers, papers[i])
	}
	mp := hetgraph.PAP

	algos := []struct {
		name string
		run  func(s hetgraph.NodeID) int
	}{
		{"Algorithm 1 (ours)", func(s hetgraph.NodeID) int {
			return len(kpcoreSearch(g, s, k, mp))
		}},
		{"FastBCore", func(s hetgraph.NodeID) int {
			return len(kpcoreFastB(g, s, k, mp))
		}},
		{"Naive (project+decompose)", func(s hetgraph.NodeID) int {
			return len(kpcoreNaive(g, s, k, mp))
		}},
	}
	var out []CoreSearchComparison
	for _, a := range algos {
		t0 := time.Now()
		var total int
		for _, s := range seedPapers {
			total += a.run(s)
		}
		el := time.Since(t0)
		out = append(out, CoreSearchComparison{
			Algorithm: a.name,
			AvgTime:   el / time.Duration(len(seedPapers)),
			AvgCore:   float64(total) / float64(len(seedPapers)),
		})
	}
	return out
}

// SamplingStrategyStats exposes the near-vs-random pool statistics for
// ablation reporting.
func SamplingStrategyStats(sc Scale, strategy sampling.Strategy) *sampling.Report {
	ds := dataset.Generate(dataset.AminerSim(sc.Papers))
	rng := rand.New(rand.NewSource(sc.Seed))
	_, rep := sampling.Generate(ds.Graph, sampling.Config{Strategy: strategy}, rng)
	return rep
}
