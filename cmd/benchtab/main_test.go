package main

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestHelpListsTheTable: the -exp help text names exactly the table's
// ids, in order, and benchtab has its seven flags and no others.
func TestHelpListsTheTable(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	m := regexp.MustCompile(`experiment ids \(([^)]*)\), or all`).FindStringSubmatch(errb.String())
	if m == nil {
		t.Fatalf("-h output has no experiment id list:\n%s", errb.String())
	}
	if got := strings.Split(m[1], ", "); !reflect.DeepEqual(got, ids()) {
		t.Errorf("help lists %v, table has %v", got, ids())
	}

	seen := map[string]bool{}
	for _, id := range ids() {
		if seen[id] {
			t.Errorf("experiment id %q appears twice in the table", id)
		}
		seen[id] = true
	}

	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(errb.String(), -1) {
		flags = append(flags, m[1])
	}
	if want := []string{"dim", "exp", "m", "n", "papers", "queries", "seed"}; !reflect.DeepEqual(flags, want) {
		t.Errorf("flags %v, want %v", flags, want)
	}
}

// TestRetiredExperimentsAreUnknown: the measuring experiments that
// bench/ superseded are gone, and an unknown id fails before any
// experiment runs.
func TestRetiredExperimentsAreUnknown(t *testing.T) {
	for _, id := range []string{"query", "cluster", "kernels", "replication", "scale", "table1,scale"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-exp", id}, &out, &errb); code == 0 {
			t.Errorf("-exp %s exited 0", id)
		}
		if !strings.Contains(errb.String(), "unknown experiment") {
			t.Errorf("-exp %s: stderr %q lacks \"unknown experiment\"", id, errb.String())
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s printed %q before failing", id, out.String())
		}
	}
}

// TestRunPrintsOneExperiment drives one table id end to end at a tiny
// scale.
func TestRunPrintsOneExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "table1", "-papers", "80", "-queries", "2", "-dim", "8"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "TABLE I") || !strings.Contains(out.String(), "[table1 completed in") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

// TestExperimentsShowsOneRun keeps EXPERIMENTS.md tied to a run of this
// program: every experiment's block sits in a section that names the
// command and the commit it came from, and Table I's block — cheap and
// deterministic — is what benchtab prints now, byte for byte.
func TestExperimentsShowsOneRun(t *testing.T) {
	command := regexp.MustCompile("(?m)^- Command: `go run \\./cmd/benchtab -exp [^`]+`$")
	commit := regexp.MustCompile("(?m)^- Commit: `[0-9a-f]{7,40}`$")
	for _, id := range ids() {
		s := sectionOf(t, id)
		if s == "" {
			t.Errorf("EXPERIMENTS.md shows no %s block", id)
			continue
		}
		if !command.MatchString(s) {
			t.Errorf("the section with the %s block states no command line", id)
		}
		if !commit.MatchString(s) {
			t.Errorf("the section with the %s block states no commit line", id)
		}
	}
	showsWhatBenchtabPrints(t, "table1")
}

// sectionOf returns the EXPERIMENTS.md section that holds experiment
// id's block, or "" when none does. A section runs from one heading to
// the next.
func sectionOf(t *testing.T, id string) string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strings.Split(string(doc), "\n#") {
		if strings.Contains(s, "\n["+id+" completed in ") {
			return s
		}
	}
	return ""
}

// showsWhatBenchtabPrints fails t unless experiment id's block in
// EXPERIMENTS.md is what `benchtab -exp id` prints now, byte for byte,
// up to its completion line (the one time in the block).
func showsWhatBenchtabPrints(t *testing.T, id string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", id}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	block, _, _ := strings.Cut(out.String(), "["+id+" completed in ")
	if !strings.Contains(sectionOf(t, id), "```\n"+block) {
		t.Errorf("EXPERIMENTS.md's %s section does not show what benchtab prints:\n%s", id, block)
	}
}
