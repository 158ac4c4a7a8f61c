package expertfind_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The system is what the binaries under cmd/ run. TestEveryFunctionLinked
// builds them, reads their symbol tables and fails on any non-test
// function of the module that none of them links, unless
// testdata/unlinked.txt names it with a tag and a reason. It also fails on
// an entry of that list that is now linked or no longer exists, so the
// list can only shrink.

const module = "expertfind"

// allowTags are the reasons a function may stay out of every binary.
var allowTags = map[string]bool{
	"oracle":       true, // the slow reference a test holds a fast path to
	"other-arch":   true, // the portable body of an amd64 kernel
	"test-package": true, // a package only tests import; one entry names it whole
	"interface":    true, // a method an interface requires and nothing calls
	"bench":        true, // reached only from the bench/ module
}

func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the allowlist is written for amd64, where the kernels' Go bodies are not linked")
	}
	linked := linkedKeys(t)
	decls := declaredFuncs(t)
	allow := readAllowlist(t, filepath.Join("testdata", "unlinked.txt"))
	for _, msg := range unlinkedReport(decls, linked, allow) {
		t.Error(msg)
	}
}

// linkedKeys builds the binaries with inlining off inside the module, so
// that no called function disappears into its caller, and returns the
// keys of every text symbol they hold. A main package's keys are prefixed
// with its binary's import path, as declaredFuncs names them.
func linkedKeys(t *testing.T) map[string]bool {
	dir := t.TempDir()
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"-gcflags="+module+"/...=-l", "./cmd/...").CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, b := range bins {
		bin := b.Name()
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin)).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", bin, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			_, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
			typ, name, _ := strings.Cut(rest, " ")
			if typ != "T" && typ != "t" {
				continue
			}
			if key, ok := symbolKey(name); ok {
				if after, isMain := strings.CutPrefix(key, "main."); isMain {
					key = module + "/cmd/" + bin + "." + after
				}
				linked[key] = true
			}
		}
	}
	return linked
}

// closureSeg matches the name parts the compiler appends to a function's
// own: closures (func1, 2), go and defer wrappers, and the assembly ABI.
var closureSeg = regexp.MustCompile(`^((func|gowrap|deferwrap)?[0-9]+|abi0)?$`)

// symbolKey maps a symbol name of the module to the function it belongs
// to: "pkgpath.Name" or "pkgpath.Recv.Name". Generic shapes, closures,
// method values (-fm) and pointer receivers all fold into their function.
func symbolKey(sym string) (string, bool) {
	if !strings.HasPrefix(sym, module+"/") && !strings.HasPrefix(sym, "main.") {
		return "", false
	}
	// Drop every bracketed instantiation, nested brackets included.
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg, rest := s[:slash+1+dot], s[slash+1+dot+1:]
	var names []string
	if after, ok := strings.CutPrefix(rest, "(*"); ok {
		recv, method, _ := strings.Cut(after, ").")
		names = append(names, recv)
		rest = method
	}
	for _, seg := range strings.Split(rest, ".") {
		seg, _, _ = strings.Cut(seg, "-")
		if closureSeg.MatchString(seg) || len(names) == 2 {
			break
		}
		names = append(names, seg)
	}
	if len(names) == 0 {
		return "", false
	}
	return pkg + "." + strings.Join(names, "."), true
}

// funcDecl is one non-test function of the module.
type funcDecl struct {
	key string // "pkgpath.Name" or "pkgpath.Recv.Name"
	pkg string // import path
	pos string // file:line, relative to the module root
}

// declaredFuncs lists the functions of every file go list builds into a
// package of this module on this platform: no test file, no file another
// architecture's build tag selects, nothing of the nested bench module.
func declaredFuncs(t *testing.T) []funcDecl {
	out, err := exec.Command("go", "list", "-f",
		`{{.ImportPath}}{{"\t"}}{{.Dir}}{{range .GoFiles}}{{"\t"}}{{.}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var decls []funcDecl
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Split(line, "\t")
		pkg, dir := fields[0], fields[1]
		for _, name := range fields[2:] {
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, _ := filepath.Rel(root, file)
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				key := pkg + "." + fn.Name.Name
				if fn.Recv != nil {
					key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, funcDecl{key: key, pkg: pkg,
					pos: filepath.ToSlash(rel) + ":" + strconv.Itoa(fset.Position(fn.Pos()).Line)})
			}
		}
	}
	return decls
}

// recvName is the type name of a method's receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// allowEntry is one line of the allowlist: a function key, or an import
// path that stands for every function of its package.
type allowEntry struct {
	name string
	line int
}

// readAllowlist parses "<name> <tag> <reason>" lines; names are written
// without the module prefix. Blank lines and #-comments are skipped.
func readAllowlist(t *testing.T, file string) []allowEntry {
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var list []allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 || !allowTags[f[1]] {
			t.Errorf("%s:%d: want \"<name> <tag> <reason>\" with a known tag, got %q", file, i+1, line)
			continue
		}
		list = append(list, allowEntry{name: module + "/" + f[0], line: i + 1})
	}
	return list
}

// unlinkedReport returns one message per unlinked function no allowlist
// entry covers and per entry that covers no unlinked function.
func unlinkedReport(decls []funcDecl, linked map[string]bool, allow []allowEntry) []string {
	short := func(s string) string { return strings.TrimPrefix(s, module+"/") }
	covered := map[string]int{} // allowlist name -> unlinked functions it covers
	declared := map[string]bool{}
	for _, e := range allow {
		covered[e.name] = 0
	}
	var msgs []string
	for _, d := range decls {
		declared[d.key], declared[d.pkg] = true, true
		if linked[d.key] {
			if _, ok := covered[d.pkg]; ok {
				msgs = append(msgs, "testdata/unlinked.txt lists package "+short(d.pkg)+
					" but a binary links "+short(d.key)+": list its unlinked functions one by one, or delete them")
			}
			continue
		}
		if _, ok := covered[d.key]; ok {
			covered[d.key]++
		} else if _, ok := covered[d.pkg]; ok {
			covered[d.pkg]++
		} else {
			msgs = append(msgs, short(d.key)+" ("+d.pos+") is linked into no binary under cmd/: "+
				"delete it, or list it in testdata/unlinked.txt with a tag and a reason")
		}
	}
	for _, e := range allow {
		switch {
		case !declared[e.name]:
			msgs = append(msgs, "testdata/unlinked.txt:"+strconv.Itoa(e.line)+": "+short(e.name)+
				" is no longer declared: delete the entry")
		case covered[e.name] == 0:
			msgs = append(msgs, "testdata/unlinked.txt:"+strconv.Itoa(e.line)+": "+short(e.name)+
				" is linked now: delete the entry")
		}
	}
	slices.Sort(msgs)
	return msgs
}

func TestSymbolKey(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		// A generic shape, brackets nested inside it: strip at the first [.
		{"expertfind/internal/cluster.list[go.shape.struct { ID int32; Dist float64; Text string; Authors []expertfind/internal/hetgraph.NodeID }]",
			"expertfind/internal/cluster.list"},
		{"expertfind/internal/colstore.typed[go.shape.float32]", "expertfind/internal/colstore.typed"},
		{"expertfind/internal/x.(*set[go.shape.int]).Add", "expertfind/internal/x.set.Add"},
		// Closures, nested ones and go/defer wrappers fold into their function.
		{"expertfind/internal/pgindex.BuildGraph.func1", "expertfind/internal/pgindex.BuildGraph"},
		{"expertfind/internal/core.(*Engine).TopExpertsCtx.func2.1", "expertfind/internal/core.Engine.TopExpertsCtx"},
		{"expertfind/internal/par.Chunks.gowrap1", "expertfind/internal/par.Chunks"},
		{"expertfind/internal/core.(*Store).Close.deferwrap1", "expertfind/internal/core.Store.Close"},
		// Method values.
		{"expertfind/internal/serve.(*Server).handleAdd-fm", "expertfind/internal/serve.Server.handleAdd"},
		// Pointer and value receivers name the same method.
		{"expertfind/internal/vec.(*Matrix32).Row", "expertfind/internal/vec.Matrix32.Row"},
		{"expertfind/internal/vec.Vec32.Axpy", "expertfind/internal/vec.Vec32.Axpy"},
		// An assembly body.
		{"expertfind/internal/vec.axpy64.abi0", "expertfind/internal/vec.axpy64"},
		{"main.main", "main.main"},
		{"runtime.gcStart", ""},
		{"type:.eq.expertfind/internal/vec.IndexError", ""},
	} {
		got, ok := symbolKey(c.sym)
		if got != c.want || ok != (c.want != "") {
			t.Errorf("symbolKey(%q) = %q, %v; want %q", c.sym, got, ok, c.want)
		}
	}
}

func TestUnlinkedReport(t *testing.T) {
	decl := func(key, pkg string) funcDecl {
		return funcDecl{key: module + "/" + key, pkg: module + "/" + pkg, pos: "x.go:1"}
	}
	entry := func(name string, line int) allowEntry { return allowEntry{name: module + "/" + name, line: line} }
	decls := []funcDecl{
		decl("a.Listed", "a"), decl("a.Linked", "a"), decl("a.New", "a"),
		decl("t.F", "t"), decl("t.G", "t"), decl("u.F", "u"),
	}
	linked := map[string]bool{module + "/a.Linked": true, module + "/u.F": true}
	allow := []allowEntry{entry("a.Listed", 1), entry("a.Linked", 2), entry("a.Gone", 3), entry("t", 4), entry("u", 5)}
	want := []string{
		"a.New (x.go:1) is linked into no binary",                      // a new unlinked function
		"testdata/unlinked.txt lists package u but a binary links u.F", // a package entry that is linked in part
		"testdata/unlinked.txt:2: a.Linked is linked now",              // stale: linked
		"testdata/unlinked.txt:3: a.Gone is no longer declared",        // stale: deleted
		"testdata/unlinked.txt:5: u is linked now",                     // stale: the whole package is linked
	}
	got := unlinkedReport(decls, linked, allow)
	if len(got) != len(want) {
		t.Fatalf("report has %d messages, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			found = found || strings.HasPrefix(g, w)
		}
		if !found {
			t.Errorf("no message starts with %q in:\n%s", w, strings.Join(got, "\n"))
		}
	}
}
