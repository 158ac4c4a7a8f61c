package expertfind_test

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"log"
	"math/rand"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
	"expertfind/internal/ta"
	"expertfind/internal/train"
)

// Example is the quickstart: generate a small synthetic academic network,
// build the (k,P)-core expert-finding engine with the paper's default
// parameters, and answer one free-text query.
func Example() {
	// 1. A synthetic Aminer-like heterogeneous graph: papers, authors,
	// venues, topics, with planted research groups (see internal/dataset).
	ds := dataset.Generate(dataset.AminerSim(400))
	st := ds.Graph.Stats()
	fmt.Printf("academic graph: %d papers, %d experts, %d topics, %d relations\n",
		st.Papers, st.Experts, st.Topics, st.Relations)

	// 2. Offline build: (k,P)-core community sampling, triplet fine-tuning
	// of the document encoder, and PG-Index construction. The zero-value
	// options select the paper's defaults (k=4, P-A-P ∩ P-T-P, f=0.3,
	// near negatives 1:3).
	engine, err := core.Build(ds.Graph, core.Options{Dim: 32, Seed: 1,
		// One worker fixes the gradient sums' order, so the output holds on any core count.
		Train: train.Config{Workers: 1}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine built: %d training triples, %d index edges\n",
		engine.Stats().Sampling.Triples, engine.Stats().IndexEdges)

	// 3. Online query: a user describes the expertise they need in their
	// own words. Here we borrow a generated evaluation query so the text
	// matches the synthetic corpus vocabulary.
	q := ds.Queries(1, rand.New(rand.NewSource(42)))[0]
	fmt.Printf("query: %.70s...\n", q.Text)

	experts, qs, err := engine.TopExperts(q.Text, 100, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-10 experts (PG-Index visited %d nodes; %d candidate experts scored):\n",
		qs.Search.NodesVisited, qs.TA.Candidates)
	for i, r := range experts {
		mark := " "
		if q.Truth[r.Expert] {
			mark = "*" // ground-truth expert of the query's topic
		}
		fmt.Printf("  %2d.%s %-24s score %.4f\n", i+1, mark, ds.Graph.Label(r.Expert), r.Score)
	}
	fmt.Println("(* = expert of the query's ground-truth topic)")
	// Output:
	// academic graph: 400 papers, 178 experts, 7 topics, 2960 relations
	// engine built: 4149 training triples, 1014 index edges
	// query: caidou drougaitaixi meataimaikiizerique mubrafliwo jaivo plujo stiosta...
	// top-10 experts (PG-Index visited 242 nodes; 53 candidate experts scored):
	//    1.* author-5-2-1             score 1.5677
	//    2.* author-5-2-0             score 0.7136
	//    3.* author-5-2-5             score 0.4841
	//    4.* author-5-2-2             score 0.3653
	//    5.* author-5-2-3             score 0.2193
	//    6.* author-5-2-4             score 0.1790
	//    7.* author-5-3-3             score 0.1213
	//    8.* author-5-3-1             score 0.1039
	//    9.* author-5-3-0             score 0.0949
	//   10.* author-5-3-2             score 0.0932
	// (* = expert of the query's ground-truth topic)
}

// Example_reviewerAssignment is one of the paper's motivating applications
// (§I): given a submission's title+abstract and its author list, find the
// most relevant reviewers while excluding anyone with a conflict of
// interest (the submitting authors themselves and their co-authors).
func Example_reviewerAssignment() {
	ds := dataset.Generate(dataset.DBLPSim(400))
	g := ds.Graph
	engine, err := core.Build(g, core.Options{Dim: 32, Seed: 2,
		// One worker fixes the gradient sums' order, so the output holds on any core count.
		Train: train.Config{Workers: 1}})
	if err != nil {
		log.Fatal(err)
	}

	// The "submission": an existing paper pretending to be just submitted;
	// its text is the query, its authors are the conflicted parties.
	q := ds.Queries(1, rand.New(rand.NewSource(9)))[0]
	submitting := g.AuthorsOf(q.Source)

	// Conflict set: submitting authors plus everyone who co-authored any
	// paper with them.
	conflicts := map[hetgraph.NodeID]bool{}
	for _, a := range submitting {
		conflicts[a] = true
		for _, p := range g.PapersOf(a) {
			for _, co := range g.AuthorsOf(p) {
				conflicts[co] = true
			}
		}
	}
	fmt.Printf("submission: %.70s...\n", g.Label(q.Source))
	fmt.Printf("submitting authors: %d, conflict set: %d researchers\n",
		len(submitting), len(conflicts))

	// Over-fetch candidates, then take the best conflict-free reviewers.
	const want = 5
	ranked, _, err := engine.TopExperts(q.Text, 300, 50)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d conflict-free reviewers:\n", want)
	count := 0
	for _, r := range ranked {
		if conflicts[r.Expert] {
			continue
		}
		count++
		mark := " "
		if q.Truth[r.Expert] {
			mark = "*"
		}
		fmt.Printf("  %d.%s %-24s score %.4f (%d papers on record)\n",
			count, mark, g.Label(r.Expert), r.Score, len(g.PapersOf(r.Expert)))
		if count == want {
			break
		}
	}
	fmt.Println("(* = works on the submission's topic, per the synthetic ground truth)")
	// Output:
	// submission: touhaibomo sobreajafea cleadraxa cupe rioflouxou kesotrofe grioquouhai...
	// submitting authors: 4, conflict set: 7 researchers
	// top-5 conflict-free reviewers:
	//   1.* author-4-1-4             score 0.1604 (8 papers on record)
	//   2.* author-4-1-2             score 0.1067 (6 papers on record)
	//   3.  author-11-0-1            score 0.1010 (13 papers on record)
	//   4.* author-4-1-6             score 0.0991 (8 papers on record)
	//   5.  author-7-0-4             score 0.0674 (12 papers on record)
	// (* = works on the submission's topic, per the synthetic ground truth)
}

// Example_teamAssembly is a consulting-style scenario (§I cites consulting
// and technology transfer as applications): a project brief spans several
// expertise areas; for each area the engine retrieves the strongest
// experts, and a team is assembled round-robin, preferring breadth across
// areas over depth in one and never picking anyone twice.
func Example_teamAssembly() {
	ds := dataset.Generate(dataset.DBLPSim(500))
	g := ds.Graph
	engine, err := core.Build(g, core.Options{Dim: 32, Seed: 6,
		// One worker fixes the gradient sums' order, so the output holds on any core count.
		Train: train.Config{Workers: 1}})
	if err != nil {
		log.Fatal(err)
	}

	// The project brief: three sub-areas, each described in a user's own
	// words (three generated queries from different topics).
	var briefs []dataset.Query
	seen := map[int]bool{}
	for _, q := range ds.Queries(60, rand.New(rand.NewSource(21))) {
		if !seen[q.Topic] && len(briefs) < 3 {
			seen[q.Topic] = true
			briefs = append(briefs, q)
		}
	}

	fmt.Println("assembling a 6-person team across 3 expertise areas")
	perArea := make([][]ta.Ranking, len(briefs))
	for i, q := range briefs {
		perArea[i], _, err = engine.TopExperts(q.Text, 200, 15)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  area %d (topic %d): %d candidates, best score %.3f\n",
			i+1, q.Topic, len(perArea[i]), perArea[i][0].Score)
	}

	// Round-robin: take the best remaining candidate of each area in turn,
	// skipping anyone already picked.
	picked := map[hetgraph.NodeID]bool{}
	cursor := make([]int, len(briefs))
	fmt.Println("proposed team:")
	for member, progressed := 0, true; member < 6 && progressed; {
		progressed = false
		for a := 0; a < len(briefs) && member < 6; a++ {
			for cursor[a] < len(perArea[a]) {
				cand := perArea[a][cursor[a]]
				cursor[a]++
				if picked[cand.Expert] {
					continue
				}
				picked[cand.Expert] = true
				member++
				progressed = true
				mark := " "
				if briefs[a].Truth[cand.Expert] {
					mark = "*"
				}
				fmt.Printf("  %d.%s %-24s area %d, score %.3f, %d papers\n",
					member, mark, g.Label(cand.Expert), a+1, cand.Score, len(g.PapersOf(cand.Expert)))
				break
			}
		}
	}
	fmt.Println("(* = ground-truth expert of that area's topic)")
	// Output:
	// assembling a 6-person team across 3 expertise areas
	//   area 1 (topic 0): 15 candidates, best score 0.766
	//   area 2 (topic 10): 15 candidates, best score 0.614
	//   area 3 (topic 2): 15 candidates, best score 0.732
	// proposed team:
	//   1.  author-3-1-1             area 1, score 0.766, 8 papers
	//   2.* author-10-1-6            area 2, score 0.614, 4 papers
	//   3.* author-2-2-5             area 3, score 0.732, 6 papers
	//   4.  author-3-1-0             area 1, score 0.443, 8 papers
	//   5.* author-10-0-1            area 2, score 0.493, 9 papers
	//   6.* author-2-0-4             area 3, score 0.551, 10 papers
	// (* = ground-truth expert of that area's topic)
}

// TestExamplesHaveOutput fails on an Example in this file that has no
// "// Output:" comment: go test compiles such an example but never runs
// it, so nothing would check what it prints.
func TestExamplesHaveOutput(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	examples := doc.Examples(f)
	if len(examples) == 0 {
		t.Fatal("example_test.go holds no Example functions")
	}
	for _, ex := range examples {
		if ex.Output == "" && !ex.EmptyOutput {
			t.Errorf("Example%s has no // Output: comment, so go test never runs it", ex.Name)
		}
	}
}
