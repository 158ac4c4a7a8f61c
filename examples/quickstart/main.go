// Quickstart: generate a small synthetic academic network, build the
// (k,P)-core expert-finding engine with the paper's default parameters,
// and answer one free-text query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
)

func main() {
	// 1. A synthetic Aminer-like heterogeneous graph: papers, authors,
	// venues, topics, with planted research groups (see internal/dataset).
	ds := dataset.Generate(dataset.AminerSim(600))
	st := ds.Graph.Stats()
	fmt.Printf("academic graph: %d papers, %d experts, %d topics, %d relations\n",
		st.Papers, st.Experts, st.Topics, st.Relations)

	// 2. Offline build: (k,P)-core community sampling, triplet fine-tuning
	// of the document encoder, and PG-Index construction. The zero-value
	// options select the paper's defaults (k=4, P-A-P ∩ P-T-P, f=0.3,
	// near negatives 1:3).
	t0 := time.Now()
	engine, err := core.Build(ds.Graph, core.Options{Dim: 48, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine built in %s (%d training triples, %d index edges)\n",
		time.Since(t0).Round(time.Millisecond),
		engine.Stats().Sampling.Triples, engine.Stats().IndexEdges)

	// 3. Online query: a user describes the expertise they need in their
	// own words. Here we borrow a generated evaluation query so the text
	// matches the synthetic corpus vocabulary.
	q := ds.Queries(1, rand.New(rand.NewSource(42)))[0]
	fmt.Printf("\nquery: %.70s...\n", q.Text)

	experts, qs, _ := engine.TopExperts(q.Text, 200, 10)
	fmt.Printf("top-10 experts in %.2fms (PG-Index visited %d nodes; %d candidate experts scored):\n",
		float64(qs.Total().Microseconds())/1000, qs.Search.NodesVisited, qs.TA.Candidates)
	for i, r := range experts {
		mark := " "
		if q.Truth[r.Expert] {
			mark = "*" // ground-truth expert of the query's topic
		}
		fmt.Printf("  %2d.%s %-24s score %.4f\n", i+1, mark, ds.Graph.Label(r.Expert), r.Score)
	}
	fmt.Println("\n(* = expert of the query's ground-truth topic)")
}
