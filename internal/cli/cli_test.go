package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/hetgraph"
)

func TestPresetConfig(t *testing.T) {
	for _, name := range []string{"aminer", "dblp", "acm"} {
		cfg, err := PresetConfig(name, 123)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.NumPapers != 123 {
			t.Errorf("%s: papers = %d", name, cfg.NumPapers)
		}
	}
	if _, err := PresetConfig("nope", 0); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestLoadGraphFromPreset(t *testing.T) {
	g, err := LoadGraph("", "aminer", 120)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodesOfType(hetgraph.Paper) != 120 {
		t.Errorf("papers = %d", g.NumNodesOfType(hetgraph.Paper))
	}
}

func TestLoadGraphFromJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.json")
	ds := dataset.Generate(dataset.AminerSim(60))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Graph.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	g, err := LoadGraph(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != ds.Graph.NumNodes() {
		t.Error("loaded graph differs")
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.json"), "", 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadGraphFromAminerFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dump.txt")
	sample := "#*First Paper\n#@Ann Author\n#index1\n\n#*Second Paper\n#@Ben Writer\n#index2\n#%1\n"
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	papers := g.NodesOfType(hetgraph.Paper)
	if len(papers) != 2 || len(g.Neighbors(papers[0], hetgraph.Paper)) != 1 {
		t.Errorf("aminer load wrong: %+v", g.Stats())
	}
	if !strings.Contains(g.Label(g.NodesOfType(hetgraph.Paper)[0]), "First Paper") {
		t.Error("labels lost")
	}
}
