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
	"expertfind/internal/pgindex"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/train"
)

// Table2Result holds the effectiveness comparison of Table II for one
// dataset.
type Table2Result struct {
	Dataset string
	Rows    []Effectiveness
}

// RunTable2 reproduces Table II: the seven baselines and Ours
// (P-A-P ∩ P-T-P) on each dataset, measured by MAP, P@5/10/20 and ADS.
func RunTable2(sc Scale) []Table2Result {
	var out []Table2Result
	for _, spec := range Datasets() {
		ds, queries, ref := buildDataset(spec, sc)
		g := ds.Graph
		var rows []Effectiveness
		for _, m := range baselines.All(sc.Dim, sc.Seed) {
			if err := m.Build(g); err != nil {
				panic(err)
			}
			rows = append(rows, Evaluate(baselineSystem{m, g}, g, queries, sc.M, sc.N, ref))
		}
		ours := buildOurs(g, sc, nil)
		rows = append(rows, Evaluate(WrapEngine("Ours (PAP ∩ PTP)", ours), g, queries, sc.M, sc.N, ref))
		out = append(out, Table2Result{Dataset: spec.Name, Rows: rows})
	}
	return out
}

// FormatTable2 renders RunTable2 output.
func FormatTable2(res []Table2Result) string {
	var b strings.Builder
	for _, r := range res {
		b.WriteString(FormatEffectivenessTable("TABLE II — effectiveness, dataset "+r.Dataset, r.Rows, false))
		b.WriteByte('\n')
	}
	return b.String()
}

// CaseStudy is one column of Table III: the top experts of one query under
// one method, with ground-truth marks.
type CaseStudy struct {
	Method  string
	Query   string // truncated query text
	Topic   int
	Experts []string // "name (correct)" entries
	Correct int
}

// RunTable3 reproduces the Table III case study on the Aminer-like
// dataset: the top-5 experts of two queries from different topics, under
// the best baseline (GVNR-t) and Ours.
func RunTable3(sc Scale) []CaseStudy {
	ds, _, _ := buildDataset(Datasets()[0], sc)
	g := ds.Graph

	gv := baselines.NewGVNRT(sc.Dim, sc.Seed)
	if err := gv.Build(g); err != nil {
		panic(err)
	}
	ours := buildOurs(g, sc, nil)

	// Two queries from different topics, deterministically chosen.
	rng := rand.New(rand.NewSource(sc.Seed + 42))
	queries := ds.Queries(50, rng)
	var picks []dataset.Query
	seenTopic := map[int]bool{}
	for _, q := range queries {
		if !seenTopic[q.Topic] {
			seenTopic[q.Topic] = true
			picks = append(picks, q)
			if len(picks) == 2 {
				break
			}
		}
	}

	var out []CaseStudy
	systems := []System{baselineSystem{gv, g}, WrapEngine("Ours", ours)}
	for _, q := range picks {
		for _, sys := range systems {
			cs := CaseStudy{Method: sys.Name(), Query: truncate(q.Text, 48), Topic: q.Topic}
			for _, r := range sys.TopExperts(q.Text, sc.M, 5) {
				name := g.Label(r.Expert)
				if q.Truth[r.Expert] {
					name += " *"
					cs.Correct++
				}
				cs.Experts = append(cs.Experts, name)
			}
			out = append(out, cs)
		}
	}
	return out
}

// FormatTable3 renders RunTable3 output.
func FormatTable3(cases []CaseStudy) string {
	var b strings.Builder
	b.WriteString("TABLE III — case study (top-5 experts; * marks ground-truth experts)\n")
	for _, c := range cases {
		fmt.Fprintf(&b, "query topic %d (%q), method %s: %d/5 correct\n", c.Topic, c.Query, c.Method, c.Correct)
		for i, e := range c.Experts {
			fmt.Fprintf(&b, "  %d. %s\n", i+1, e)
		}
	}
	return b.String()
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// metaPathConfig names one row of Table IV.
type metaPathConfig struct {
	Label string
	Paths []hetgraph.MetaPath
	// NoCore disables the (k,P)-core fine-tuning entirely.
	NoCore bool
}

func metaPathConfigs() []metaPathConfig {
	return []metaPathConfig{
		{Label: "w/o (k,P)-core", NoCore: true},
		{Label: "P-A-P (A)", Paths: []hetgraph.MetaPath{hetgraph.PAP}},
		{Label: "P-P (C)", Paths: []hetgraph.MetaPath{hetgraph.PP}},
		{Label: "P-T-P (T)", Paths: []hetgraph.MetaPath{hetgraph.PTP}},
		{Label: "AT", Paths: []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PTP}},
		{Label: "AC", Paths: []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PP}},
		{Label: "CT", Paths: []hetgraph.MetaPath{hetgraph.PP, hetgraph.PTP}},
		{Label: "ACT", Paths: []hetgraph.MetaPath{hetgraph.PAP, hetgraph.PP, hetgraph.PTP}},
	}
}

// RunTable4 reproduces Table IV: the effect of the meta-path choice (one,
// two, or three paths, and no core at all) on effectiveness, per dataset.
func RunTable4(sc Scale) []Table2Result {
	var out []Table2Result
	for _, spec := range Datasets() {
		ds, queries, ref := buildDataset(spec, sc)
		g := ds.Graph
		var rows []Effectiveness
		for _, cfg := range metaPathConfigs() {
			cfg := cfg
			e := buildOurs(g, sc, func(o *core.Options) {
				if cfg.NoCore {
					o.UseKPCore = core.Bool(false)
				} else {
					o.MetaPaths = cfg.Paths
				}
			})
			row := Evaluate(WrapEngine(cfg.Label, e), g, queries, sc.M, sc.N, ref)
			rows = append(rows, row)
		}
		out = append(out, Table2Result{Dataset: spec.Name, Rows: rows})
	}
	return out
}

// Table5Row is one negative-sampling strategy of Table V.
type Table5Row struct {
	Strategy  string
	MAP, P5   float64
	ADS       float64
	TrainTime time.Duration
	Triples   int
}

// RunTable5 reproduces Table V on the Aminer-like dataset: random
// negatives at 1:3 versus near negatives at ratios 1:1 through 1:4,
// reporting effectiveness and training cost.
func RunTable5(sc Scale) []Table5Row {
	ds, queries, ref := buildDataset(Datasets()[0], sc)
	g := ds.Graph
	type variant struct {
		label    string
		strategy sampling.Strategy
		s        int
	}
	variants := []variant{
		{"Random (1:3)", sampling.RandomNegative, 3},
		{"Near (1:1)", sampling.NearNegative, 1},
		{"Near (1:2)", sampling.NearNegative, 2},
		{"Near (1:3)", sampling.NearNegative, 3},
		{"Near (1:4)", sampling.NearNegative, 4},
	}
	var out []Table5Row
	for _, v := range variants {
		v := v
		e := buildOurs(g, sc, func(o *core.Options) {
			o.NegStrategy = v.strategy
			o.NegPerPos = v.s
			// Table V isolates the sampling strategy on the single
			// meta-path P-A-P, as in the paper's §VI-D setup.
			o.MetaPaths = []hetgraph.MetaPath{hetgraph.PAP}
		})
		eff := Evaluate(WrapEngine(v.label, e), g, queries, sc.M, sc.N, ref)
		st := e.Stats()
		out = append(out, Table5Row{
			Strategy:  v.label,
			MAP:       eff.MAP,
			P5:        eff.P5,
			ADS:       eff.ADS,
			TrainTime: st.CommunityTime + st.TrainTime,
			Triples:   st.Sampling.Triples,
		})
	}
	return out
}

// FormatTable5 renders RunTable5 output.
func FormatTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("TABLE V — negative-sampling strategy (Aminer-sim)\n")
	fmt.Fprintf(&b, "%-14s %7s %7s %7s %10s %9s\n", "Strategy", "MAP", "P@5", "ADS", "train", "triples")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %7.3f %7.3f %7.3f %10s %9d\n",
			r.Strategy, r.MAP, r.P5, r.ADS, r.TrainTime.Round(time.Millisecond), r.Triples)
	}
	return b.String()
}

// Table6Row is one corpus size of Table VI.
type Table6Row struct {
	Name        string
	Papers      int
	GraphEdges  int
	IndexEdges  int
	MemoryBytes int64
	BuildTime   time.Duration
}

// RunTable6 reproduces Table VI: PG-Index construction time and memory
// across shrinking corpora G, G1..G4, extracted as induced subgraphs of
// the original dataset (scale factors 1, 0.8, 0.4, 0.2, 0.1 of the paper
// set, as the paper extracts its sub-graphs from G). Embeddings come from
// the frozen encoder so only the index cost varies across rows.
func RunTable6(sc Scale) []Table6Row {
	factors := []struct {
		name string
		f    float64
	}{{"G", 1}, {"G1", 0.8}, {"G2", 0.4}, {"G3", 0.2}, {"G4", 0.1}}
	ds := dataset.Generate(dataset.AminerSim(sc.Papers))
	full := ds.Graph
	allPapers := full.NodesOfType(hetgraph.Paper)

	var out []Table6Row
	for _, fc := range factors {
		n := int(float64(len(allPapers)) * fc.f)
		if n < 10 {
			n = 10
		}
		g := full
		if n < len(allPapers) {
			sub, _, err := hetgraph.InducedSubgraph(full, allPapers[:n])
			if err != nil {
				panic(err)
			}
			g = sub
		}
		// One vocabulary/encoder per subgraph corpus keeps rows
		// self-contained, as each of the paper's sub-graphs would be; the
		// corpus is tokenised once, as the engine's build does.
		papers := g.NodesOfType(hetgraph.Paper)
		corpus := make([]string, len(papers))
		for i, p := range papers {
			corpus[i] = g.Label(p)
		}
		subVocab, docs := textenc.BuildVocabTokens(corpus, textenc.VocabConfig{})
		enc := textenc.NewEncoder(subVocab, sc.Dim, sc.Seed)
		cache := train.NewTokenCache(papers, docs)
		out = append(out, buildTable6Row(fc.name, g, enc, cache, sc))
	}
	return out
}

// FormatTable6 renders RunTable6 output.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("TABLE VI — overhead of PG-Index (Aminer-sim)\n")
	fmt.Fprintf(&b, "%-6s %9s %11s %11s %10s %10s\n", "Corpus", "papers", "graph-edges", "index-edges", "mem(MB)", "time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %9d %11d %11d %10.2f %10s\n",
			r.Name, r.Papers, r.GraphEdges, r.IndexEdges,
			float64(r.MemoryBytes)/(1<<20), r.BuildTime.Round(time.Millisecond))
	}
	return b.String()
}

func buildTable6Row(name string, g *hetgraph.Graph, enc *textenc.Encoder, cache train.TokenCache, sc Scale) Table6Row {
	idx := pgindex.FromRows(train.EmbedRows(enc, cache))
	t0 := time.Now()
	idx.BuildGraph(pgindex.Config{Refine: true, Seed: sc.Seed}, rand.New(rand.NewSource(sc.Seed)))
	dur := time.Since(t0)
	return Table6Row{
		Name:        name,
		Papers:      idx.Len(),
		GraphEdges:  g.NumEdges(),
		IndexEdges:  idx.NumEdges(),
		MemoryBytes: idx.MemoryBytes(),
		BuildTime:   dur,
	}
}
