// Command expertfind builds the (k,P)-core based expert-finding engine
// over an academic graph and answers top-n expert queries.
//
// The graph comes either from a JSON file written by cmd/datagen
// (-graph) or from a built-in synthetic preset (-dataset). One query can
// be passed with -query; otherwise queries are read line by line from
// standard input.
//
// Examples:
//
//	expertfind -dataset aminer -papers 1000 -query "graph community search"
//	datagen -preset dblp -out g.json && expertfind -graph g.json < queries.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/hetgraph"
	"expertfind/internal/sampling"
	"expertfind/internal/serve"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "JSON graph file (from datagen)")
		preset    = flag.String("dataset", "aminer", "built-in preset when -graph is not given: aminer, dblp, acm")
		papers    = flag.Int("papers", 1000, "preset size in papers")
		query     = flag.String("query", "", "one query text (otherwise read lines from stdin)")
		k         = flag.Int("k", 4, "(k,P)-core cohesiveness threshold")
		paths     = flag.String("metapaths", "P-A-P,P-T-P", "comma-separated paper-paper meta-paths")
		strategy  = flag.String("neg", "near", "negative sampling strategy: near or random")
		frac      = flag.Float64("f", 0.3, "seed sampling ratio")
		dim       = flag.Int("dim", 64, "embedding dimension")
		m         = flag.Int("m", 200, "papers retrieved per query (top-m)")
		n         = flag.Int("n", 10, "experts returned per query (top-n)")
		seed      = flag.Int64("seed", 7, "random seed")
		verbose   = flag.Bool("v", false, "print build statistics")
		evalFile  = flag.String("eval", "", "evaluate against a query file from datagen -queries and exit")
	)
	flag.Parse()

	g, err := dataset.LoadGraph(*graphFile, *preset, *papers)
	if err != nil {
		fail(err)
	}

	opts := core.Options{
		K:              *k,
		SampleFraction: *frac,
		Dim:            *dim,
		Seed:           *seed,
	}
	for _, p := range strings.Split(*paths, ",") {
		mp, err := hetgraph.ParseMetaPath(strings.TrimSpace(p))
		if err != nil {
			fail(err)
		}
		opts.MetaPaths = append(opts.MetaPaths, mp)
	}
	switch *strategy {
	case "near":
		opts.NegStrategy = sampling.NearNegative
	case "random":
		opts.NegStrategy = sampling.RandomNegative
	default:
		fail(fmt.Errorf("unknown negative strategy %q", *strategy))
	}

	fmt.Fprintf(os.Stderr, "building engine over %d papers (k=%d, P=%s)...\n",
		g.NumNodesOfType(hetgraph.Paper), *k, *paths)
	t0 := time.Now()
	engine, err := core.Build(g, opts)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "built in %s\n", time.Since(t0).Round(time.Millisecond))
	if *verbose {
		st := engine.Stats()
		fmt.Fprintf(os.Stderr, "  vocabulary: %d tokens\n", st.VocabSize)
		fmt.Fprintf(os.Stderr, "  sampling: %d seeds, %d triples (mean community %.1f)\n",
			st.Sampling.Seeds, st.Sampling.Triples, st.Sampling.MeanCommunity)
		fmt.Fprintf(os.Stderr, "  training: %d steps, final loss %.4f\n",
			st.Training.Steps, last(st.Training.EpochLosses))
		fmt.Fprintf(os.Stderr, "  pg-index: %d edges, %.1f MB, built in %s\n",
			st.IndexEdges, float64(st.IndexMemory)/(1<<20), st.IndexTime.Round(time.Millisecond))
	}

	if *evalFile != "" {
		if err := evaluate(engine, g, *evalFile, *m, *n); err != nil {
			fail(err)
		}
		return
	}
	if *query != "" {
		answer(engine, g, *query, *m, *n)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		answer(engine, g, line, *m, *n)
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
}

// evaluate scores the engine against a benchmark query file, printing the
// paper's effectiveness metrics plus the mean response time.
func evaluate(engine *core.Engine, g *hetgraph.Graph, file string, m, n int) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	queries, err := dataset.ReadQueriesJSON(f)
	if err != nil {
		return err
	}
	if len(queries) == 0 {
		return fmt.Errorf("no queries in %s", file)
	}
	eff := experiments.Evaluate(experiments.WrapEngine("Ours", engine), g, queries, m, n, nil)
	fmt.Printf("evaluated %d queries (m=%d, n=%d)\n", len(queries), m, n)
	fmt.Printf("MAP %.3f  P@5 %.3f  P@10 %.3f  P@20 %.3f  avg %.2fms\n",
		eff.MAP, eff.P5, eff.P10, eff.P20, eff.AvgMs)
	return nil
}

func answer(engine *core.Engine, g *hetgraph.Graph, query string, m, n int) {
	experts, st, err := engine.TopExperts(query, m, n)
	if err != nil {
		fmt.Printf("query failed: %v\n", err)
		return
	}
	fmt.Printf("query: %s\n", serve.Truncate(query, 70))
	fmt.Printf("top-%d experts (%.2fms: encode %.2f, retrieve %.2f, rank %.2f; %d dist comps, %d candidates):\n",
		n, ms(st.Total()), ms(st.EncodeTime), ms(st.RetrieveTime), ms(st.RankTime),
		st.Search.DistanceComputations, st.TA.Candidates)
	for i, r := range experts {
		fmt.Printf("  %2d. %-28s score %.4f  (%d papers)\n",
			i+1, g.Label(r.Expert), r.Score, len(g.PapersOf(r.Expert)))
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "expertfind:", err)
	os.Exit(1)
}
