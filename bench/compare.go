package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Verdicts of one (workload, end-to-end metric) row.
const (
	better     = "better"
	noWorse    = "no worse within bound"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict judges new against old for one metric. A metric whose
// run-to-run spread is wider than its bound cannot be called unchanged:
// it is unresolved, unless every new run reads better than every old one.
func verdict(d metricDef, old, new []float64) string {
	sign := 1.0 // positive delta means worse
	if d.Better == "higher" {
		sign = -1
	}
	mo, mn := median(old), median(new)
	if mo == 0 {
		if mn == 0 {
			return noWorse
		}
		return unresolved
	}
	delta := sign * (mn - mo) / mo
	if max(spread(old), spread(new)) > d.Bound {
		if allBetter(sign, old, new) {
			return better
		}
		return unresolved
	}
	switch {
	case delta > d.Bound:
		return worse
	case delta < -d.Bound:
		return better
	}
	return noWorse
}

// allBetter reports whether every new value beats every old one.
func allBetter(sign float64, old, new []float64) bool {
	for _, n := range new {
		for _, o := range old {
			if sign*(n-o) >= 0 {
				return false
			}
		}
	}
	return true
}

type compareRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Old      float64 `json:"old_median"`
	New      float64 `json:"new_median"`
	Bound    float64 `json:"bound"`
	Verdict  string  `json:"verdict"`
}

// compareSets returns one row per (workload, end-to-end metric) present
// on both sides, the counts that must repeat exactly but differ, and
// whether the new side fails more operations.
func compareSets(old, new *resultSet) (rows []compareRow, countDiffs []string, moreFailures bool) {
	for _, s := range workloads {
		o, n := runsOf(old, s.name), runsOf(new, s.name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, d := range endToEnd {
			ov, nv := valuesOf(o, d.Name), valuesOf(n, d.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			rows = append(rows, compareRow{s.name, d.Name, d.Unit, median(ov), median(nv), d.Bound, verdict(d, ov, nv)})
		}
		if failedRatio(n) > failedRatio(o) {
			moreFailures = true
		}
		for k, v := range o[0].Counts {
			for _, r := range append(o[1:], n...) {
				if r.Counts[k] != v {
					countDiffs = append(countDiffs, fmt.Sprintf("%s: %s is %s and %s", s.name, k, v, r.Counts[k]))
					break
				}
			}
		}
	}
	return rows, countDiffs, moreFailures
}

// runsOf returns the untraced runs of one workload.
func runsOf(set *resultSet, workload string) []*result {
	var out []*result
	for _, r := range set.Runs {
		if r.Workload == workload && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

func valuesOf(runs []*result, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.EndToEnd[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedRatio(runs []*result) float64 {
	var failed, attempted int
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

func printRows(rows []compareRow) (anyWorse bool) {
	fmt.Printf("%-15s %-26s %14s %14s %7s  %s\n", "workload", "metric", "old", "new", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-15s %-26s %14.6g %14.6g %6.0f%%  %s\n", r.Workload, r.Metric, r.Old, r.New, r.Bound*100, r.Verdict)
		anyWorse = anyWorse || r.Verdict == worse
	}
	return anyWorse
}

// compareFiles prints the rows and returns the exit status: non-zero on
// any "worse" row or when the new side fails more operations.
func compareFiles(oldPath, newPath string) int {
	old, err := readSet(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := readSet(newPath)
	if err != nil {
		fatal(err)
	}
	rows, _, moreFailures := compareSets(old, new)
	anyWorse := printRows(rows)
	if moreFailures {
		fmt.Println("the new side fails a larger share of its operations")
	}
	if anyWorse || moreFailures {
		return 1
	}
	return 0
}

// selfcheckRuns is how many runs per workload each side of -selfcheck
// gets. One run against one run compares two readings of the machine's
// mood; three give a median and a spread.
const selfcheckRuns = 3

// runSelfcheck measures the same code as two sides, alternating between
// them so that drift of the machine falls on both, each run of a side
// with another seed. The sides must agree within each metric's own bound
// and repeat every exact count; the outcome goes to <out>/selfcheck.json.
func runSelfcheck(cfg runConfig) int {
	var sets [2]*resultSet
	for i := 0; i < selfcheckRuns; i++ {
		for side := range sets {
			c := cfg
			c.seed += int64(i)
			set, err := runAll(c)
			if err != nil {
				fatal(err)
			}
			if sets[side] == nil {
				sets[side] = set
			} else {
				sets[side].Runs = append(sets[side].Runs, set.Runs...)
			}
		}
	}
	rows, countDiffs, moreFailures := compareSets(sets[0], sets[1])
	anyWorse := printRows(rows)
	for _, d := range countDiffs {
		fmt.Println("count does not repeat:", d)
	}
	pass := !anyWorse && !moreFailures && len(countDiffs) == 0 && sets[0].correct() && sets[1].correct()
	doc := struct {
		Meta       machine      `json:"meta"`
		Claim      *string      `json:"claim"`
		Pass       bool         `json:"pass"`
		Rows       []compareRow `json:"rows"`
		CountDiffs []string     `json:"count_diffs"`
		First      []*result    `json:"first"`
		Second     []*result    `json:"second"`
	}{sets[0].Meta, nil, pass, rows, countDiffs, sets[0].Runs, sets[1].Runs}
	if err := writeJSON(filepath.Join(cfg.out, "selfcheck.json"), doc); err != nil {
		fatal(err)
	}
	fmt.Println("selfcheck pass:", pass)
	if !pass {
		return 1
	}
	return 0
}
