package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, equal to the tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contractJSON()) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with: sh bench/run.sh -contract > BENCHMARK.json")
	}
}

func TestTablesRespectTheContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkDef := func(d metricDef) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		checkDef(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		checkDef(d)
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric it should move", d.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, s := range workloads {
		if !name.MatchString(s.name) || seen[s.name] {
			t.Errorf("workload name %q is malformed or used twice", s.name)
		}
		seen[s.name] = true
		if len(s.why) == 0 || len(s.why) > 200 || bytes.ContainsRune([]byte(s.why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", s.name, len(s.why))
		}
		if s.clients < 1 || s.clients > 2 {
			t.Errorf("workload %s: %d clients, the sandbox has 2 cores", s.name, s.clients)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", runSeconds)
	}
}
