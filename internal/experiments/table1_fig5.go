package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"expertfind/internal/baselines"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/metrics"
	"expertfind/internal/pgindex"
	"expertfind/internal/textenc"
	"expertfind/internal/train"
)

// Table1Row mirrors the paper's Table I: per-dataset statistics.
type Table1Row struct {
	Dataset   string
	Papers    int
	Experts   int
	Venues    int
	Topics    int
	Relations int
}

// RunTable1 reproduces Table I over the synthetic stand-ins at the given
// scale: the corpus statistics every other experiment runs against.
func RunTable1(sc Scale) []Table1Row {
	var out []Table1Row
	for _, spec := range dataset.Presets {
		ds := dataset.Generate(spec.Gen(sc.Papers))
		st := ds.Graph.Stats()
		out = append(out, Table1Row{
			Dataset:   spec.Title,
			Papers:    st.Papers,
			Experts:   st.Experts,
			Venues:    st.Venues,
			Topics:    st.Topics,
			Relations: st.Relations,
		})
	}
	return out
}

// FormatTable1 renders RunTable1 output in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("TABLE I — statistics of datasets (synthetic stand-ins)\n")
	fmt.Fprintf(&b, "%-8s %9s %9s %8s %8s %11s\n",
		"Dataset", "#papers", "#experts", "#venues", "#topics", "#relations")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %9d %9d %8d %8d %11d\n",
			r.Dataset, r.Papers, r.Experts, r.Venues, r.Topics, r.Relations)
	}
	return b.String()
}

// Fig5Row is one index variant of the Figure 5 comparison: how much work
// greedy search does on the raw kNN graph versus the refined PG-Index.
type Fig5Row struct {
	Index         string
	AvgExpansions float64
	AvgVisited    float64
	AvgDistComps  float64
	Recall        float64 // vs brute force, top-10
}

// RunFig5 reproduces the point of Figure 5: the refined PG-Index reaches
// the query's neighbourhood with fewer expansions and visited papers than
// the raw kNN graph, at equal-or-better recall. It tokenises one corpus
// once and embeds it with the frozen encoder the way the engine does
// (textenc.BuildVocabTokens, train.EmbedRows), then runs the same query
// set over both index builds of those rows.
func RunFig5(sc Scale) []Fig5Row {
	ds := dataset.Generate(dataset.AminerSim(sc.Papers))
	g := ds.Graph
	vocab, docs := textenc.BuildVocabTokens(ds.Corpus(), textenc.VocabConfig{})
	enc := textenc.NewEncoder(vocab, sc.Dim, sc.Seed)
	textenc.PretrainTokens(enc, docs)
	ids, rows := train.EmbedRows(enc, train.NewTokenCache(g.NodesOfType(hetgraph.Paper), docs))
	rng := rand.New(rand.NewSource(sc.Seed))
	queries := ds.Queries(sc.Queries, rng)

	variants := []struct {
		name   string
		refine bool
	}{
		{"raw kNN graph", false},
		{"PG-Index (refined)", true},
	}
	// Single-entry greedy search, the paper's §IV-B procedure: Figure 5
	// isolates the refinement's effect, which the stratified multi-entry
	// rescue would mask.
	const topM = 10
	var out []Fig5Row
	for _, v := range variants {
		idx := pgindex.FromRows(ids, rows)
		idx.BuildGraph(pgindex.Config{Refine: v.refine, Seed: sc.Seed}, rand.New(rand.NewSource(sc.Seed)))
		row := Fig5Row{Index: v.name}
		for _, q := range queries {
			qv := enc.Encode(q.Text)
			res, st := idx.SearchEx(qv, topM, 3*topM, false)
			row.AvgExpansions += float64(st.Expansions)
			row.AvgVisited += float64(st.NodesVisited)
			row.AvgDistComps += float64(st.DistanceComputations)
			// A Background context never ends, so the scan cannot fail.
			scanned, _ := pgindex.Scan(context.Background(), ids, rows, qv, topM)
			exact := map[hetgraph.NodeID]bool{}
			for _, r := range scanned {
				exact[r.ID] = true
			}
			hit := 0
			for _, r := range res {
				if exact[r.ID] {
					hit++
				}
			}
			row.Recall += float64(hit) / topM
		}
		nq := float64(len(queries))
		row.AvgExpansions /= nq
		row.AvgVisited /= nq
		row.AvgDistComps /= nq
		row.Recall /= nq
		out = append(out, row)
	}
	return out
}

// FormatFig5 renders RunFig5 output.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("FIGURE 5 — greedy search work: raw kNN graph vs refined PG-Index\n")
	fmt.Fprintf(&b, "%-20s %12s %10s %11s %8s\n", "Index", "expansions", "visited", "dist-comps", "recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %12.1f %10.1f %11.1f %8.3f\n",
			r.Index, r.AvgExpansions, r.AvgVisited, r.AvgDistComps, r.Recall)
	}
	return b.String()
}

// Significance compares Ours against one named baseline with a paired
// bootstrap over per-query average precision — the statistical backing for
// the Table II "Ours wins" claim.
type Significance struct {
	Dataset  string
	Baseline string
	Result   metrics.BootstrapResult
}

// RunSignificance evaluates Ours against the strongest embedding baseline
// (TADW, the comparison the paper's claim targets) and against TFIDF (the
// strongest baseline on synthetic text; see EXPERIMENTS.md), and
// bootstrap-tests the per-query AP differences on each dataset.
func RunSignificance(sc Scale) []Significance {
	var out []Significance
	for _, spec := range dataset.Presets {
		ds, queries, _ := buildDataset(spec, sc)
		g := ds.Graph
		ours := buildOurs(g, sc, nil)

		a := Evaluate(WrapEngine("Ours", ours), g, queries, sc.M, sc.N, nil).APs

		for _, base := range []baselines.Method{
			baselines.NewTADW(sc.Dim, sc.Seed),
			baselines.NewTFIDF(),
		} {
			if err := base.Build(g); err != nil {
				panic(err)
			}
			b := Evaluate(baselineSystem{base, g}, g, queries, sc.M, sc.N, nil).APs
			res, err := metrics.PairedBootstrap(a, b, 10000, rand.New(rand.NewSource(sc.Seed)))
			if err != nil {
				panic(err)
			}
			out = append(out, Significance{Dataset: spec.Title, Baseline: base.Name(), Result: res})
		}
	}
	return out
}

// FormatSignificance renders RunSignificance output.
func FormatSignificance(rows []Significance) string {
	var b strings.Builder
	b.WriteString("SIGNIFICANCE — paired bootstrap, per-query AP, Ours vs strongest baseline\n")
	fmt.Fprintf(&b, "%-8s %-10s %10s %22s %8s\n", "Dataset", "Baseline", "ΔMAP", "95% CI", "p(≤0)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-10s %+10.4f   [%+8.4f, %+8.4f] %8.4f\n",
			r.Dataset, r.Baseline, r.Result.MeanDiff, r.Result.CILow, r.Result.CIHigh, r.Result.PValue)
	}
	return b.String()
}
