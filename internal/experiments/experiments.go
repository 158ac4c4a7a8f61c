// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the synthetic datasets: Table II (effectiveness vs
// seven baselines), Table III (case study), Table IV (meta-path ablation),
// Table V (negative-sampling strategies), Table VI (PG-Index overhead),
// Figure 7 (efficiency of Ours-1..4 vs baselines) and Figure 8 (parameter
// sensitivity). Each Run* function returns structured rows and can render
// them in the paper's layout; cmd/benchtab drives these entry points.
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
	"expertfind/internal/metrics"
	"expertfind/internal/ta"
	"expertfind/internal/textenc"
	"expertfind/internal/vec"
)

// Scale sizes an experiment run. The paper's corpora have 1-2M papers;
// these are laptop-scale reductions documented in EXPERIMENTS.md.
type Scale struct {
	Papers  int // papers per dataset
	Queries int // evaluation queries per dataset
	M       int // top-m papers retrieved
	N       int // top-n experts returned
	Dim     int // embedding dimension
	Seed    int64
}

// Quick is the scale used by unit tests and -short benchmarks.
var Quick = Scale{Papers: 400, Queries: 15, M: 60, N: 20, Dim: 32, Seed: 7}

// Default is the scale used by cmd/benchtab and the full benchmarks.
var Default = Scale{Papers: 1500, Queries: 50, M: 150, N: 20, Dim: 64, Seed: 7}

// System is anything that can answer a top-n expert query; the harness
// treats the paper's engine and every baseline uniformly.
type System interface {
	Name() string
	TopExperts(query string, m, n int) []ta.Ranking
}

// baselineSystem adapts a baselines.Method: exhaustive retrieval followed
// by scoring every candidate expert, as the paper describes for all
// competitors — through ta.TopExperts, the engine's own ranker.
type baselineSystem struct {
	m baselines.Method
	g *hetgraph.Graph
}

func (b baselineSystem) Name() string { return b.m.Name() }

func (b baselineSystem) TopExperts(query string, m, n int) []ta.Ranking {
	papers := b.m.QueryPapers(query, m)
	ranked, _ := ta.TopExperts(b.g, papers, n)
	return ranked
}

// engineSystem adapts core.Engine.
type engineSystem struct {
	name string
	e    *core.Engine
}

func (s engineSystem) Name() string { return s.name }

func (s engineSystem) TopExperts(query string, m, n int) []ta.Ranking {
	r, _, _ := s.e.TopExperts(query, m, n)
	return r
}

// WrapEngine exposes a built engine as a System named name.
func WrapEngine(name string, e *core.Engine) System { return engineSystem{name, e} }

// Effectiveness is one row of Table II / IV / V.
type Effectiveness struct {
	Method string
	MAP    float64
	P5     float64
	P10    float64
	P20    float64
	ADS    float64
	AvgMs  float64 // mean response time per query, for Figure 7
}

// RefSpace is the fixed similarity space used by the ADS metric: the
// frozen pre-trained encoder's embeddings, identical for every method so
// ADS is comparable across rows (see EXPERIMENTS.md).
type RefSpace struct {
	Enc  *textenc.Encoder
	Embs map[hetgraph.NodeID]vec.Vector
}

// NewRefSpace builds the reference space for a dataset by constructing the
// frozen SBERT baseline.
func NewRefSpace(g *hetgraph.Graph, dim int, seed int64) *RefSpace {
	sb := baselines.NewSBERT(dim, seed)
	if err := sb.Build(g); err != nil {
		panic(err)
	}
	return &RefSpace{Enc: sb.Encoder(), Embs: sb.Embeddings()}
}

// Evaluate runs the queries against sys and aggregates the paper's
// effectiveness metrics, averaging over queries.
func Evaluate(sys System, g *hetgraph.Graph, queries []dataset.Query, m, n int,
	ref *RefSpace) Effectiveness {
	eff := Effectiveness{Method: sys.Name()}
	var aps []float64
	var totalDur time.Duration
	for _, q := range queries {
		t0 := time.Now()
		ranked := sys.TopExperts(q.Text, m, n)
		totalDur += time.Since(t0)
		ids := make([]hetgraph.NodeID, len(ranked))
		for i, r := range ranked {
			ids[i] = r.Expert
		}
		eff.P5 += metrics.PrecisionAtN(ids, q.Truth, 5)
		eff.P10 += metrics.PrecisionAtN(ids, q.Truth, 10)
		eff.P20 += metrics.PrecisionAtN(ids, q.Truth, 20)
		aps = append(aps, metrics.AveragePrecision(ids, q.Truth))
		if ref != nil {
			eff.ADS += metrics.ADS(g, ids, ref.Embs, ref.Enc.Encode(q.Text).Float64())
		}
	}
	nq := float64(len(queries))
	if nq > 0 {
		eff.P5 /= nq
		eff.P10 /= nq
		eff.P20 /= nq
		eff.ADS /= nq
		eff.AvgMs = float64(totalDur) / float64(time.Millisecond) / nq
	}
	eff.MAP = metrics.MAP(aps)
	return eff
}

// DatasetSpec names a dataset preset and its generator.
type DatasetSpec struct {
	Name string
	Gen  func(papers int) dataset.Config
}

// Datasets lists the three presets in the paper's order.
func Datasets() []DatasetSpec {
	return []DatasetSpec{
		{"Aminer", dataset.AminerSim},
		{"DBLP", dataset.DBLPSim},
		{"ACM", dataset.ACMSim},
	}
}

// buildDataset generates a dataset at the given scale plus its query set
// and reference space.
func buildDataset(spec DatasetSpec, sc Scale) (*dataset.Dataset, []dataset.Query, *RefSpace) {
	ds := dataset.Generate(spec.Gen(sc.Papers))
	rng := rand.New(rand.NewSource(sc.Seed))
	queries := ds.Queries(sc.Queries, rng)
	ref := NewRefSpace(ds.Graph, sc.Dim, sc.Seed)
	return ds, queries, ref
}

// buildOurs builds the paper's engine with default options at scale sc,
// applying mutate (if non-nil) to the options first.
func buildOurs(g *hetgraph.Graph, sc Scale, mutate func(*core.Options)) *core.Engine {
	opts := core.Options{Dim: sc.Dim, Seed: sc.Seed}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := core.Build(g, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// FormatEffectivenessTable renders rows in the layout of Table II.
func FormatEffectivenessTable(title string, rows []Effectiveness, withTime bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %7s %7s %7s %7s %7s", "Method", "MAP", "P@5", "P@10", "P@20", "ADS")
	if withTime {
		fmt.Fprintf(&b, " %9s", "ms/query")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %7.3f %7.3f %7.3f %7.3f %7.3f", r.Method, r.MAP, r.P5, r.P10, r.P20, r.ADS)
		if withTime {
			fmt.Fprintf(&b, " %9.2f", r.AvgMs)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
