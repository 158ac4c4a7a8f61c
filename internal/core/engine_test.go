package core

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/metrics"
	"expertfind/internal/sampling"
	"expertfind/internal/textenc"
	"expertfind/internal/train"
)

func buildSmall(t *testing.T, mutate func(*Options)) (*dataset.Dataset, *Engine) {
	t.Helper()
	ds := dataset.Generate(dataset.AminerSim(250))
	opts := Options{Dim: 24, Seed: 7}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := Build(ds.Graph, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, e
}

func TestBuildRejectsPaperlessGraph(t *testing.T) {
	g := hetgraph.New()
	g.AddNode(hetgraph.Author, "lonely")
	if _, err := Build(g, Options{}); err == nil {
		t.Fatal("graph without papers accepted")
	}
}

// TestBuildRejectsUnusableCoreParameters: a meta-path from the command
// line that no (k,P)-core is defined over, or a negative k, is an error
// from Build, not a panic in the sampling stage.
func TestBuildRejectsUnusableCoreParameters(t *testing.T) {
	g := dataset.Generate(dataset.AminerSim(50)).Graph
	for _, path := range []string{"P-A", "P-A-P-T-P"} {
		opts := Options{MetaPaths: []hetgraph.MetaPath{hetgraph.MustParseMetaPath(path)}}
		if _, err := Build(g, opts); err == nil {
			t.Errorf("meta-path %s accepted", path)
		}
	}
	if _, err := Build(g, Options{K: -1}); err == nil {
		t.Error("negative k accepted")
	}
}

func TestBuildProducesAllArtifacts(t *testing.T) {
	ds, e := buildSmall(t, nil)
	st := e.Stats()
	if st.VocabSize == 0 {
		t.Error("no vocabulary")
	}
	if st.Sampling == nil || st.Sampling.Triples == 0 {
		t.Error("no training triples")
	}
	if st.Training == nil || st.Training.Steps == 0 {
		t.Error("no training steps")
	}
	if e.index.Len() != ds.Graph.NumNodesOfType(hetgraph.Paper) {
		t.Error("not all papers embedded")
	}
	if e.Index() == nil || st.IndexEdges == 0 {
		t.Error("no PG-Index built")
	}
	if st.TotalTime <= 0 {
		t.Error("no timing recorded")
	}
	if e.Graph() != ds.Graph || e.Encoder() == nil {
		t.Error("accessors broken")
	}
}

func TestTopExpertsEndToEnd(t *testing.T) {
	ds, e := buildSmall(t, nil)
	rng := rand.New(rand.NewSource(3))
	queries := ds.Queries(8, rng)
	var p20 float64
	for _, q := range queries {
		ranked, st, _ := e.TopExperts(q.Text, 50, 20)
		if len(ranked) == 0 {
			t.Fatal("no experts returned")
		}
		if !st.UsedPGIndex {
			t.Error("default engine should use the PG-Index")
		}
		if st.Total() <= 0 {
			t.Error("query stats missing timings")
		}
		ids := make([]hetgraph.NodeID, len(ranked))
		for i, r := range ranked {
			ids[i] = r.Expert
			if ds.Graph.Type(r.Expert) != hetgraph.Author {
				t.Fatal("returned a non-author")
			}
		}
		p20 += metrics.PrecisionAtN(ids, q.Truth, 20)
	}
	p20 /= float64(len(queries))
	// 7 topics: random guessing would score ~1/7 ≈ 0.14, and at this size
	// truth sets (~18 authors) cap P@20 near 0.9. The engine must land far
	// above chance on planted communities.
	if p20 < 0.35 {
		t.Errorf("P@20 = %.3f, want >= 0.35 on planted communities", p20)
	}
}

func TestAblationsChangeThePipeline(t *testing.T) {
	_, noCore := buildSmall(t, func(o *Options) { o.UseKPCore = Bool(false) })
	if noCore.Stats().Training != nil {
		t.Error("w/o (k,P)-core still trained")
	}
	_, noIdx := buildSmall(t, func(o *Options) { o.UsePGIndex = Bool(false) })
	if noIdx.Index() != nil {
		t.Error("w/o PG-Index still built one")
	}
	ranked, st, _ := noIdx.TopExperts("some query text", 30, 10)
	if st.UsedPGIndex {
		t.Error("stats claim PG-Index was used")
	}
	if len(ranked) == 0 {
		t.Error("brute-force fallback returned nothing")
	}
}

func TestBuildDeterministic(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	e1, err := Build(ds.Graph, Options{Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Build(ds.Graph, Options{Dim: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := e1.index.Rows()
	for _, p := range ids {
		v1, v2 := e1.index.Embedding(p), e2.index.Embedding(p)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("embedding of paper %d differs between identical builds", p)
			}
		}
	}
	q := "community search graph embedding"
	r1, _, _ := e1.TopExperts(q, 30, 10)
	r2, _, _ := e2.TopExperts(q, 30, 10)
	for i := range r1 {
		if r1[i].Expert != r2[i].Expert {
			t.Fatal("query results differ between identical builds")
		}
	}
}

// TestBuildIndependentOfGOMAXPROCS: a build is a function of (graph,
// Options, Seed), not of the machine. Under GOMAXPROCS 1, 2 and 8 an
// indexed and an exact engine each rank a fixed query set
// Float64bits-identically, save the same snapshot bytes and report the
// same epoch losses — the float64 sums that move first when the gradient
// grid follows the core count.
func TestBuildIndependentOfGOMAXPROCS(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	build := func(procs int, indexed bool) (*Engine, []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := Build(ds.Graph, Options{Dim: 16, Seed: 9, UsePGIndex: Bool(indexed)})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if _, err := e.SaveSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return e, snap.Bytes()
	}
	for _, indexed := range []bool{true, false} {
		want, wantSnap := build(1, indexed)
		wantLosses := want.Stats().Training.EpochLosses
		for _, procs := range []int{2, 8} {
			label := fmt.Sprintf("indexed %v, GOMAXPROCS %d vs 1", indexed, procs)
			got, gotSnap := build(procs, indexed)
			gotLosses := got.Stats().Training.EpochLosses
			if len(gotLosses) != len(wantLosses) {
				t.Fatalf("%s: %d epochs, want %d", label, len(gotLosses), len(wantLosses))
			}
			for i, l := range wantLosses {
				if math.Float64bits(gotLosses[i]) != math.Float64bits(l) {
					t.Errorf("%s: epoch %d loss bits %x, want %x", label, i,
						math.Float64bits(gotLosses[i]), math.Float64bits(l))
				}
			}
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Errorf("%s: snapshots differ (%d vs %d bytes)", label, len(gotSnap), len(wantSnap))
			}
			assertRankingsIdentical(t, ds, label, want, got)
		}
	}
}

// TestReadCorpusMatchesBuildTokenCache holds the build's one read of the
// corpus to the three-tokenisation path it replaced: the token cache the
// engine trains and embeds from is what BuildTokenCache tokenises, and
// the encoder is the one a build without fine-tuning serves, on one core
// and on four.
func TestReadCorpusMatchesBuildTokenCache(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(300))
	g := ds.Graph
	// Labels the generator never writes: case folding, other scripts,
	// broken UTF-8 and a label longer than MaxSequenceLength tokens.
	for _, label := range []string{
		"Поиск экспертов в ГЕТЕРОГЕННЫХ графах; İstanbul \xff\xfe ǅ",
		strings.Repeat("Expert FINDING over heterogeneous graphs ", 150),
	} {
		p := g.AddNode(hetgraph.Paper, label)
		g.MustAddEdge(g.NodesOfType(hetgraph.Author)[0], p, hetgraph.Write)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		opts := Options{Dim: 16, Seed: 5, UseKPCore: Bool(false), UsePGIndex: Bool(false)}.withDefaults()
		enc, cache := readCorpus(context.Background(), g, opts)
		want := train.BuildTokenCache(g, enc)
		if !maps.EqualFunc(cache, want, slices.Equal[[]textenc.TokenID]) {
			t.Fatalf("GOMAXPROCS %d: the build's token cache differs from BuildTokenCache's", procs)
		}
		e, err := Build(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(e.enc.Emb.Data, enc.Emb.Data) {
			t.Fatalf("GOMAXPROCS %d: the built engine's frozen encoder differs from readCorpus's", procs)
		}
	}
}

func TestRetrievePapersAgreesWithBruteForceOnSelf(t *testing.T) {
	ds, e := buildSmall(t, nil)
	// Querying with a paper's exact text must retrieve that paper first.
	papers := ds.Graph.NodesOfType(hetgraph.Paper)
	hits := 0
	for _, p := range papers[:10] {
		got, _, _ := e.RetrievePapers(ds.Graph.Label(p), 5)
		if len(got) > 0 && got[0] == p {
			hits++
		}
	}
	if hits < 8 {
		t.Errorf("self-retrieval hit %d/10, want >= 8", hits)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.K != 4 || o.SampleFraction != 0.3 || o.NegPerPos != 3 || o.Dim != 64 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
	if len(o.MetaPaths) != 2 {
		t.Errorf("default meta-paths = %v, want PAP+PTP", o.MetaPaths)
	}
	if o.NegStrategy != sampling.NearNegative {
		t.Error("default negative strategy must be near")
	}
}

func TestCustomMetaPathOptions(t *testing.T) {
	_, e := buildSmall(t, func(o *Options) {
		o.MetaPaths = []hetgraph.MetaPath{hetgraph.PP}
		o.K = 2
	})
	if e.Stats().Sampling.Triples == 0 {
		t.Error("citation-only configuration produced no training data")
	}
}

func TestFastSamplingMatchesCommunityStructure(t *testing.T) {
	ds := dataset.Generate(dataset.AminerSim(200))
	slow, err := Build(ds.Graph, Options{Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Build(ds.Graph, Options{Dim: 8, Seed: 3, FastSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same seeds, same communities: identical positive coverage.
	if slow.Stats().Sampling.Communities != fast.Stats().Sampling.Communities {
		t.Errorf("community counts differ: %d vs %d",
			slow.Stats().Sampling.Communities, fast.Stats().Sampling.Communities)
	}
}
