// Command datagen generates a synthetic heterogeneous academic network
// (the Aminer/DBLP/ACM stand-ins of DESIGN.md) and writes it as JSON for
// use with cmd/expertfind or external tooling.
//
// Usage:
//
//	datagen -preset aminer -papers 2000 -out aminer.json
//	datagen -preset aminer -papers 1000000 -out big.json -queries 200
//
// Large corpora: generation is linear in -papers and logs progress to
// stderr, so a 10^6-paper graph is a matter of tens of seconds and a
// few GiB of JSON. Every expertserve role reads the one graph file —
// a shard takes the full -graph plus -shards/-shard-id and keeps the
// papers cluster.AssignShard gives it — so there is no per-shard output.
// Serve a large corpus with expertserve -mmap auto so the embedding
// matrix pages in from the snapshot instead of occupying heap.
// -queries N writes N held-out evaluation queries to
// <out>.queries.json and needs -out — that is checked before generation
// starts, not after minutes of work.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"expertfind/internal/dataset"
)

func main() {
	var (
		preset  = flag.String("preset", "aminer", "dataset preset: aminer, dblp, or acm")
		papers  = flag.Int("papers", 0, "number of papers (0 for the preset default)")
		seed    = flag.Int64("seed", 0, "override the preset's random seed (0 keeps it)")
		out     = flag.String("out", "", "output file (default stdout)")
		queries = flag.Int("queries", 0, "also write this many evaluation queries to <out>.queries.json (requires -out)")
		qseed   = flag.Int64("qseed", 1, "random seed for query sampling")
	)
	flag.Parse()

	// Validate the flag set before any generation work: a 10^6-paper
	// run should not fail on a missing -out after the graph is built.
	fail := func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
		os.Exit(1)
	}
	if *papers < 0 {
		fail("-papers must be >= 0, got %d", *papers)
	}
	if *queries < 0 {
		fail("-queries must be >= 0, got %d", *queries)
	}
	if *queries > 0 && *out == "" {
		fail("-queries requires -out (the queries land next to the graph file)")
	}

	var cfg dataset.Config
	switch *preset {
	case "aminer":
		cfg = dataset.AminerSim(*papers)
	case "dblp":
		cfg = dataset.DBLPSim(*papers)
	case "acm":
		cfg = dataset.ACMSim(*papers)
	default:
		fail("unknown preset %q (want aminer, dblp, or acm)", *preset)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	fmt.Fprintf(os.Stderr, "generating %s (%d papers, seed %d)...\n",
		cfg.Name, cfg.NumPapers, cfg.Seed)
	t0 := time.Now()
	ds := dataset.Generate(cfg)
	st := ds.Graph.Stats()
	fmt.Fprintf(os.Stderr, "generated %s in %s: %d papers, %d experts, %d venues, %d topics, %d relations\n",
		cfg.Name, time.Since(t0).Round(time.Millisecond),
		st.Papers, st.Experts, st.Venues, st.Topics, st.Relations)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		w = f
		fmt.Fprintf(os.Stderr, "writing graph JSON to %s...\n", *out)
	}
	t1 := time.Now()
	if err := ds.Graph.WriteJSON(w); err != nil {
		fail("%v", err)
	}
	if *out != "" {
		if fi, err := os.Stat(*out); err == nil {
			fmt.Fprintf(os.Stderr, "wrote %s (%.1f MiB) in %s\n",
				*out, float64(fi.Size())/(1<<20), time.Since(t1).Round(time.Millisecond))
		}
	}

	if *queries > 0 {
		qf, err := os.Create(*out + ".queries.json")
		if err != nil {
			fail("%v", err)
		}
		defer qf.Close()
		qs := ds.Queries(*queries, rand.New(rand.NewSource(*qseed)))
		if err := dataset.WriteQueriesJSON(qf, qs); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d queries to %s.queries.json\n", len(qs), *out)
	}
}
