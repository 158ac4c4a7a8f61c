// Command bench is the repository's benchmark: five workloads over the
// paper's pipeline, each measured from outside through the layers' public
// functions and HTTP handlers, with named end-to-end metrics, a traced run
// for the per-layer numbers, and regression bounds. See README.md.
//
//	sh bench/run.sh -workload all -seed 1          every workload, one child process each
//	sh bench/run.sh -workload query_pg -trace 1    one traced run
//	sh bench/run.sh -compare old.json new.json     verdict per (workload, metric)
//	sh bench/run.sh -selfcheck                     two sets on the same code must agree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	start := time.Now()
	var (
		workload  = flag.String("workload", "all", "workload name, or all (each in a child process)")
		seed      = flag.Int64("seed", 1, "workload seed: query choice, operation mix, /add payloads")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measured phase; 0 makes a fixed number of passes over the workload's sequence instead")
		trace     = flag.Int("trace", 0, "1 runs with the span recorder on and reports the per-layer metrics")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "measure the same code as two sides, 3 runs of every workload each, and require them to agree within the bounds")
		contract  = flag.Bool("contract", false, "print BENCHMARK.json from the metric tables")
		out       = flag.String("out", "bench/out", "directory for result and trace files")
		scratch   = flag.String("scratch", ".bench_build/tmp", "directory for stores and snapshots, inside the checkout")
	)
	flag.Parse()
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1,
		scratch: *scratch, out: *out, start: start}

	switch {
	case *contract:
		os.Stdout.Write(contractJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *selfcheck:
		os.Exit(runSelfcheck(cfg))
	case *workload == "all":
		set, err := runAll(cfg)
		if err != nil {
			fatal(err)
		}
		name := "result.json"
		if cfg.traced {
			name = "result-traced.json"
		}
		if err := writeJSON(filepath.Join(*out, name), set); err != nil {
			fatal(err)
		}
		if !set.correct() {
			os.Exit(1)
		}
		return
	}

	s, ok := findSpec(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := runWorkload(s, cfg)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	os.Exit(exitStatus(res))
}

// exitStatus is non-zero when an operation or a correctness check failed.
func exitStatus(r *result) int {
	if r.Correct {
		return 0
	}
	return 1
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints every metric by name with its unit, then the
// driver's line: one JSON object with exactly four keys, last on stdout.
func printResult(r *result) {
	fmt.Printf("workload %s  seed %d  traced %v\n", r.Workload, r.Seed, r.Traced)
	// With the recorder on the driver gets the per-layer metrics, with it
	// off the end-to-end ones.
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	for _, n := range sortedKeys(metrics) {
		fmt.Printf("  %-34s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, k := range sortedKeys(r.Samples) {
		fmt.Printf("  samples.%-26s %14d\n", k, r.Samples[k])
	}
	for _, k := range sortedKeys(r.Counts) {
		fmt.Printf("  count.%-28s %s\n", k, r.Counts[k])
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	// The full result travels on the line before, for -workload all.
	full, err := json.Marshal(r)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result %s\n%s\n", full, line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// resultSet is what -workload all writes: the runs, where they ran, and
// no claim — the benchmark is the ruler, not a result.
type resultSet struct {
	Meta  machine   `json:"meta"`
	Claim *string   `json:"claim"`
	Runs  []*result `json:"runs"`
}

func (s *resultSet) correct() bool {
	for _, r := range s.Runs {
		if !r.Correct {
			return false
		}
	}
	return true
}

type machine struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"workload_seed"`
	Seconds    float64 `json:"seconds"`
}

func machineInfo(seed int64, seconds float64) machine {
	m := machine{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Outside a git checkout the commit stays unknown.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

// runAll runs every workload in a fresh child process, so peak RSS and
// GC state of one do not leak into the next.
func runAll(cfg runConfig) (*resultSet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := &resultSet{Meta: machineInfo(cfg.seed, cfg.seconds)}
	trace := "0"
	if cfg.traced {
		trace = "1"
	}
	for _, s := range workloads {
		cmd := exec.Command(exe, "-workload", s.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", trace, "-out", cfg.out, "-scratch", cfg.scratch)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		found := false
		for _, l := range lines {
			if rest, ok := strings.CutPrefix(l, "result "); ok {
				found = json.Unmarshal([]byte(rest), &res) == nil
			} else if !strings.HasPrefix(l, "{") {
				fmt.Println(l)
			}
		}
		if !found {
			return nil, fmt.Errorf("workload %s printed no result (%v)", s.name, runErr)
		}
		set.Runs = append(set.Runs, &res)
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
