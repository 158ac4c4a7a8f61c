package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMetricNamesWrittenOnce holds every metric family to one home: each
// "expertfind_…" string literal appears once in the non-test Go files of
// the module (bench/ is a module of its own), at the place that creates
// the family's handles. A second copy is a second place to keep its help
// text, type and spelling in step.
func TestMetricNamesWrittenOnce(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	seen := map[string][]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "expertfind_") {
					seen[s] = append(seen[s], fset.Position(lit.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("no metric names found: the walk missed the module")
	}
	for name, at := range seen {
		if len(at) > 1 {
			t.Errorf("%s is written %d times: %s", name, len(at), strings.Join(at, ", "))
		}
	}
}
