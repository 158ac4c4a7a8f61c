// Team assembly: a consulting-style scenario (§I cites consulting and
// technology transfer as applications). A project brief spans several
// expertise areas; for each area we retrieve the strongest experts, then
// assemble a team greedily, never picking two members from the same
// research group twice for the same area and preferring breadth across
// areas over depth in one.
//
//	go run ./examples/team-assembly
package main

import (
	"fmt"
	"log"
	"math/rand"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
)

func main() {
	ds := dataset.Generate(dataset.DBLPSim(900))
	g := ds.Graph
	engine, err := core.Build(g, core.Options{Dim: 48, Seed: 6})
	if err != nil {
		log.Fatal(err)
	}

	// The project brief: three sub-areas, each described in a user's own
	// words (we borrow three generated queries from different topics).
	rng := rand.New(rand.NewSource(21))
	var briefs []dataset.Query
	seen := map[int]bool{}
	for _, q := range ds.Queries(60, rng) {
		if !seen[q.Topic] {
			seen[q.Topic] = true
			briefs = append(briefs, q)
			if len(briefs) == 3 {
				break
			}
		}
	}

	fmt.Println("assembling a 6-person team across 3 expertise areas")
	perArea := make([][]ta.Ranking, len(briefs))
	for i, q := range briefs {
		perArea[i], _, _ = engine.TopExperts(q.Text, 200, 15)
		fmt.Printf("  area %d (topic %d): %d candidates, best score %.3f\n",
			i+1, q.Topic, len(perArea[i]), perArea[i][0].Score)
	}

	// Greedy round-robin: take the best remaining candidate of each area
	// in turn, skipping anyone already picked.
	picked := map[hetgraph.NodeID]bool{}
	type member struct {
		expert hetgraph.NodeID
		area   int
		score  float64
	}
	var team []member
	cursor := make([]int, len(briefs))
	for len(team) < 6 {
		progressed := false
		for a := range briefs {
			if len(team) == 6 {
				break
			}
			for cursor[a] < len(perArea[a]) {
				cand := perArea[a][cursor[a]]
				cursor[a]++
				if picked[cand.Expert] {
					continue
				}
				picked[cand.Expert] = true
				team = append(team, member{cand.Expert, a + 1, cand.Score})
				progressed = true
				break
			}
		}
		if !progressed {
			break // candidate pools exhausted
		}
	}

	fmt.Println("\nproposed team:")
	for i, m := range team {
		mark := " "
		if briefs[m.area-1].Truth[m.expert] {
			mark = "*"
		}
		fmt.Printf("  %d.%s %-24s area %d, score %.3f, %d papers\n",
			i+1, mark, g.Label(m.expert), m.area, m.score, len(g.PapersOf(m.expert)))
	}
	fmt.Println("\n(* = ground-truth expert of that area's topic)")
}
