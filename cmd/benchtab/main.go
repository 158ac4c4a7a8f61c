// Command benchtab regenerates the paper's tables and figures on the
// synthetic datasets and prints them in the paper's layout.
//
// Usage:
//
//	benchtab -exp table2 [-papers 1500] [-queries 50] [-m 150] [-n 20] [-dim 64] [-seed 7]
//	benchtab -exp table2,fig7
//	benchtab -exp all
//
// benchtab -h lists the experiment ids; "all" runs every one of them in
// that order. benchtab prints the paper's rows and nothing else: the
// repository's performance numbers come from `sh bench/run.sh` (see
// bench/README.md and BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"expertfind/internal/experiments"
)

// experiment is one printable table or figure of the paper.
type experiment struct {
	id  string
	run func(experiments.Scale) string
}

// table lists every experiment in the order "all" runs them. The -exp
// help text and the "all" list are generated from it.
var table = []experiment{
	{"table1", func(sc experiments.Scale) string {
		return experiments.FormatTable1(experiments.RunTable1(sc))
	}},
	{"table2", func(sc experiments.Scale) string {
		return experiments.FormatTable2(experiments.RunTable2(sc))
	}},
	{"table3", func(sc experiments.Scale) string {
		return experiments.FormatTable3(experiments.RunTable3(sc))
	}},
	{"table4", func(sc experiments.Scale) string {
		var b strings.Builder
		for _, r := range experiments.RunTable4(sc) {
			b.WriteString(experiments.FormatEffectivenessTable(
				"TABLE IV — effect of meta-paths, dataset "+r.Dataset, r.Rows, false))
			b.WriteByte('\n')
		}
		return b.String()
	}},
	{"table5", func(sc experiments.Scale) string {
		return experiments.FormatTable5(experiments.RunTable5(sc))
	}},
	{"table6", func(sc experiments.Scale) string {
		return experiments.FormatTable6(experiments.RunTable6(sc))
	}},
	{"fig5", func(sc experiments.Scale) string {
		return experiments.FormatFig5(experiments.RunFig5(sc))
	}},
	{"fig7", func(sc experiments.Scale) string {
		return experiments.FormatFig7(experiments.RunFig7(sc))
	}},
	{"fig8a", func(sc experiments.Scale) string {
		return experiments.FormatSensitivity("FIGURE 8(a) — sample ratio f (Aminer-sim)",
			"train-time", experiments.RunFig8a(sc))
	}},
	{"fig8b", func(sc experiments.Scale) string {
		return experiments.FormatSensitivity("FIGURE 8(b) — core size k (Aminer-sim)",
			"train-time", experiments.RunFig8b(sc))
	}},
	{"fig8c", func(sc experiments.Scale) string {
		return experiments.FormatSensitivity("FIGURE 8(c) — top-m papers (Aminer-sim)",
			"query-time", experiments.RunFig8c(sc))
	}},
	{"fig8d", func(sc experiments.Scale) string {
		return experiments.FormatSensitivity("FIGURE 8(d) — top-n experts (Aminer-sim)",
			"query-time", experiments.RunFig8d(sc))
	}},
	{"coresearch", func(sc experiments.Scale) string {
		var b strings.Builder
		b.WriteString("ABLATION — (k,P)-core community search algorithms (k=4, P-A-P)\n")
		for _, r := range experiments.RunCoreSearchComparison(sc, 4, 20) {
			fmt.Fprintf(&b, "%-28s avg %-12s avg core size %.1f\n",
				r.Algorithm, r.AvgTime.Round(time.Microsecond), r.AvgCore)
		}
		return b.String()
	}},
	{"sig", func(sc experiments.Scale) string {
		return experiments.FormatSignificance(experiments.RunSignificance(sc))
	}},
}

// ids returns the table's experiment ids in order.
func ids() []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.id
	}
	return out
}

func lookup(id string) (experiment, bool) {
	for _, e := range table {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters; it returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var exp string
	sc := experiments.Default
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&exp, "exp", "all", "comma-separated experiment ids ("+strings.Join(ids(), ", ")+"), or all")
	fs.IntVar(&sc.Papers, "papers", sc.Papers, "papers per dataset")
	fs.IntVar(&sc.Queries, "queries", sc.Queries, "evaluation queries per dataset")
	fs.IntVar(&sc.M, "m", sc.M, "top-m papers retrieved")
	fs.IntVar(&sc.N, "n", sc.N, "top-n experts returned")
	fs.IntVar(&sc.Dim, "dim", sc.Dim, "embedding dimension")
	fs.Int64Var(&sc.Seed, "seed", sc.Seed, "random seed")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	want := ids()
	if exp != "all" {
		want = strings.Split(exp, ",")
	}
	// Resolve every id before running any: a typo should not cost the
	// minutes the experiments before it take.
	todo := make([]experiment, 0, len(want))
	for _, id := range want {
		e, ok := lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(stderr, "benchtab: unknown experiment %q\n", id)
			return 1
		}
		todo = append(todo, e)
	}
	for _, e := range todo {
		t0 := time.Now()
		fmt.Fprint(stdout, e.run(sc))
		fmt.Fprintf(stdout, "[%s completed in %s]\n\n", e.id, time.Since(t0).Round(time.Millisecond))
	}
	return 0
}
