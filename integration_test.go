package expertfind_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestCLIPipeline exercises the shipped binaries end to end: generate a
// dataset with datagen (graph + benchmark queries), then evaluate it with
// expertfind -eval. This is the workflow README documents.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }

	for _, tool := range []string{"datagen", "expertfind"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	graph := filepath.Join(dir, "g.json")
	out, err := exec.Command(bin("datagen"), "-preset", "aminer", "-papers", "200",
		"-out", graph, "-queries", "5").CombinedOutput()
	if err != nil {
		t.Fatalf("datagen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "generated aminer-sim") {
		t.Errorf("datagen output missing summary: %s", out)
	}
	if _, err := os.Stat(graph + ".queries.json"); err != nil {
		t.Fatalf("queries file missing: %v", err)
	}

	out, err = exec.Command(bin("expertfind"), "-graph", graph,
		"-eval", graph+".queries.json", "-m", "40", "-n", "10", "-dim", "16").CombinedOutput()
	if err != nil {
		t.Fatalf("expertfind -eval: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "MAP") || !strings.Contains(text, "evaluated 5 queries") {
		t.Errorf("eval output unexpected:\n%s", text)
	}

	// Single-query mode.
	out, err = exec.Command(bin("expertfind"), "-graph", graph,
		"-query", "community graphs expert", "-m", "40", "-n", "3", "-dim", "16").CombinedOutput()
	if err != nil {
		t.Fatalf("expertfind -query: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "top-3 experts") {
		t.Errorf("query output unexpected:\n%s", out)
	}

	// A query whose 70th byte falls inside a two-byte rune: the echoed
	// text is cut at a rune boundary, never inside one.
	out, err = exec.Command(bin("expertfind"), "-graph", graph,
		"-query", "xграфовые сообщества экспертов и поиск специалистов по темам",
		"-m", "40", "-n", "3", "-dim", "16").Output()
	if err != nil {
		t.Fatalf("expertfind -query (Cyrillic): %v\n%s", err, out)
	}
	line, _, _ := strings.Cut(string(out), "\n")
	if !strings.HasPrefix(line, "query: x") || !utf8.ValidString(line) {
		t.Errorf("query line is not the query cut at a rune boundary: %q", line)
	}
}
