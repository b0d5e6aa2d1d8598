package repro

// The link check: every non-test function of this module is linked by a
// program that ships (a main package under cmd/ or examples/, or the
// benchmark harness under bench/), or it is on testdata/unlinked.txt
// with the test, fuzzer, Make target or interface that needs it. The
// matcher below is tested here on fixture dumps; the gate that builds
// every program is linkcheck_gate_test.go (`make linkcheck`).

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// funcDecl is one non-test function declaration. id names it by import
// path, "repro/internal/zarr.(*Array).WriteFloat64" or
// "repro/cmd/yprov.run"; sym is its symbol as the linker names it, the
// same as id except in a main package, whose "main.run" is looked up
// only in the dump of the program that package builds.
type funcDecl struct {
	id, sym string
	main    string // import path of the main package declaring it, or ""
	pos     string // file:line
	lines   int
}

// parseFuncDecls lists the function declarations of one package's files.
func parseFuncDecls(pkgPath, pkgName string, files []string) ([]funcDecl, error) {
	fset := token.NewFileSet()
	var out []funcDecl
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "_" || fd.Name.Name == "init" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			decl := funcDecl{id: pkgPath + "." + name, sym: pkgPath + "." + name}
			if pkgName == "main" {
				decl.sym, decl.main = "main."+name, pkgPath
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			decl.pos = fmt.Sprintf("%s:%d", path, start.Line)
			decl.lines = end.Line - start.Line + 1
			out = append(out, decl)
		}
	}
	return out, nil
}

// recvName renders a receiver type as the linker does, type parameters
// dropped: "(*T)" or "T".
func recvName(x ast.Expr) string {
	ptr := false
	if s, ok := x.(*ast.StarExpr); ok {
		ptr, x = true, s.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	name := x.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// metaSuffixes are the linker's per-function metadata symbols. A
// function that shows up in a dump only through one of them is not
// linked: the dump draws edges to them from code that never calls the
// function (runtime.throw -> runtime.munmap.stkobj).
var metaSuffixes = []string{".stkobj", ".arginfo0", ".arginfo1", ".argliveinfo", ".args_stackmap", ".opendefer", ".wrapinfo"}

// linkedFuncs reads a `go build -ldflags=-dumpdep` dump (one
// "from -> to" edge a line, "#" lines are the go command's headers) and
// returns the functions it links. A closure (F.func1, F.func1.2),
// a go or defer wrapper (F.gowrap1, F.deferwrap1), a method value
// (F-fm) and a generic instance (F[go.shape.int]) credit F.
func linkedFuncs(r io.Reader) (map[string]bool, error) {
	linked := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok {
			continue
		}
		for _, s := range [2]string{from, to} {
			if f, ok := creditedFunc(s); ok {
				linked[f] = true
			}
		}
	}
	return linked, sc.Err()
}

// creditedFunc maps one symbol to the declared function it shows to be
// linked, or reports false for a symbol that is not this module's code.
func creditedFunc(sym string) (string, bool) {
	if !strings.HasPrefix(sym, "repro/") && !strings.HasPrefix(sym, "main.") {
		return "", false
	}
	sym = stripTypeArgs(sym)
	for _, suf := range metaSuffixes {
		if strings.HasSuffix(sym, suf) {
			return "", false
		}
	}
	base := strings.LastIndexByte(sym, '/') + 1
	if i := strings.IndexByte(sym[base:], '-'); i >= 0 { // F-fm, F-range1
		sym = sym[:base+i]
	}
	for {
		i := strings.LastIndexByte(sym, '.')
		if i < 0 || !isClosureSuffix(sym[i+1:]) {
			return sym, true
		}
		sym = sym[:i]
	}
}

// isClosureSuffix reports whether one dot-separated element is what the
// compiler appends to name a function literal or wrapper inside its
// enclosing function: "func3", "gowrap1", "deferwrap2", or a bare
// number for a literal nested in another.
func isClosureSuffix(s string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if strings.HasPrefix(s, p) {
			s = s[len(p):]
			break
		}
	}
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// stripTypeArgs drops every bracketed type-argument list from a symbol:
// "p.(*T[go.shape.int]).M" is "p.(*T).M".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, c := range sym {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// unlinkedEntry is one line of testdata/unlinked.txt: a function no
// program links, and the line it is on.
type unlinkedEntry struct {
	sym  string
	line int
}

// parseUnlinkedList reads the checked-in list: one function a line, its
// symbol then what needs it; blank lines and "#" lines are skipped.
func parseUnlinkedList(r io.Reader) ([]unlinkedEntry, error) {
	var out []unlinkedEntry
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %s names nothing that needs it", n, sym)
		}
		out = append(out, unlinkedEntry{sym: sym, line: n})
	}
	return out, sc.Err()
}

// checkLinks returns the gate's findings, sorted: each declared function
// that no dump links and the list does not name, each list entry that a
// dump links, and each list entry that is no longer declared. dumps is
// keyed by the import path of the main package each dump was built from.
func checkLinks(decls []funcDecl, dumps map[string]map[string]bool, list []unlinkedEntry) []string {
	linkedAnywhere := map[string]bool{}
	for _, d := range dumps {
		for s := range d {
			if !strings.HasPrefix(s, "main.") {
				linkedAnywhere[s] = true
			}
		}
	}
	isLinked := func(d funcDecl) bool {
		if d.main != "" {
			return dumps[d.main][d.sym]
		}
		return linkedAnywhere[d.sym]
	}
	declared := map[string]funcDecl{}
	for _, d := range decls {
		declared[d.id] = d
	}
	listed := map[string]bool{}
	var bad []string
	for _, e := range list {
		listed[e.sym] = true
		d, ok := declared[e.sym]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("unlinked.txt:%d: %s is not declared any more; drop the line", e.line, e.sym))
		case isLinked(d):
			bad = append(bad, fmt.Sprintf("unlinked.txt:%d: %s is linked now; drop the line", e.line, e.sym))
		}
	}
	for _, d := range decls {
		if !listed[d.id] && !isLinked(d) {
			bad = append(bad, fmt.Sprintf("%s: %s (%d lines) is linked by no program and not on testdata/unlinked.txt", d.pos, d.id, d.lines))
		}
	}
	sort.Strings(bad)
	return bad
}

func TestLinkedFuncsCreditsOnlyCode(t *testing.T) {
	dump := `# repro/cmd/yprov
runtime.throw -> repro/internal/provclient.(*BatchError).Error.stkobj
runtime.funcdata -> repro/internal/prov.ValidationIssue.String.arginfo1
type:*repro/internal/core.Experiment -> type:.namedata.BuildCombinedProv.
runtime.funcdata -> repro/internal/prov.splitTopLevel.arginfo1
runtime.markroot -> repro/internal/prov.(*Index).Row.argliveinfo
main.main -> repro/internal/provclient.New
main.main -> repro/internal/zarr.(*Array).WriteFloat64.func1
main.run -> repro/internal/wal.(*Log).Run.gowrap1
main.run -> repro/internal/wal.(*Log).Close.deferwrap2
main.run -> repro/internal/prov.Walk.func2.1
main.run -> repro/internal/obs.Sum[go.shape.struct { a int; b []string }]
main.run -> repro/internal/obs.(*Ring[go.shape.int]).Push
main.run -> repro/internal/obs.Pair[go.shape.int,go.shape.string].Swap
main.run -> repro/internal/flightrec.(*Recorder).Observe-fm
main.run -> go:itab.*repro/internal/zarr.ZipStore,repro/internal/zarr.Store
main.run -> type:.eq.repro/internal/zarr.Meta
main.run -> repro/internal/prov.Walk.func2.1.stkobj
`
	got, err := linkedFuncs(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"main.main",
		"main.run",
		"repro/internal/flightrec.(*Recorder).Observe",
		"repro/internal/obs.(*Ring).Push",
		"repro/internal/obs.Pair.Swap",
		"repro/internal/obs.Sum",
		"repro/internal/prov.Walk",
		"repro/internal/provclient.New",
		"repro/internal/wal.(*Log).Close",
		"repro/internal/wal.(*Log).Run",
		"repro/internal/zarr.(*Array).WriteFloat64",
	}
	var names []string
	for s := range got {
		names = append(names, s)
	}
	sort.Strings(names)
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Fatalf("linked:\n%s\nwant:\n%s", strings.Join(names, "\n"), strings.Join(want, "\n"))
	}
	// Metadata alone never credits a function. Before the gate,
	// cmd/yprov's dump named (*BatchError).Error and
	// ValidationIssue.String only through their .stkobj and .arginfo1
	// symbols, and BuildCombinedProv only as a method-name string of
	// Experiment's type data; a match on the name took each for a link.
	for _, s := range []string{
		"repro/internal/provclient.(*BatchError).Error",
		"repro/internal/prov.ValidationIssue.String",
		"repro/internal/core.(*Experiment).BuildCombinedProv",
		"repro/internal/prov.splitTopLevel",
		"repro/internal/prov.(*Index).Row",
	} {
		if got[s] {
			t.Errorf("%s credited from a metadata symbol", s)
		}
	}
}

func TestParseFuncDeclsNamesSymbols(t *testing.T) {
	dir := t.TempDir()
	src := `package p

func F() {}
func (a *A) M() {}
func (a A) V() {}
func (g *G[K, V]) P() {}
func (g G[K]) Q() {}
func init() {}
func _() {}
`
	path := filepath.Join(dir, "p.go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, err := parseFuncDecls("repro/internal/p", "p", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range lib {
		got = append(got, d.id)
		if d.sym != d.id {
			t.Errorf("library function %s has symbol %s", d.id, d.sym)
		}
	}
	want := "repro/internal/p.F repro/internal/p.(*A).M repro/internal/p.A.V repro/internal/p.(*G).P repro/internal/p.G.Q"
	if strings.Join(got, " ") != want {
		t.Fatalf("symbols %q, want %q", strings.Join(got, " "), want)
	}
	prog, err := parseFuncDecls("repro/cmd/x", "main", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if d := prog[0]; d.id != "repro/cmd/x.F" || d.sym != "main.F" || d.main != "repro/cmd/x" {
		t.Fatalf("main package function: %+v", d)
	}
}

func TestCheckLinks(t *testing.T) {
	decls := []funcDecl{
		{id: "repro/internal/a.Used", sym: "repro/internal/a.Used", pos: "a.go:1"},
		{id: "repro/internal/a.Oracle", sym: "repro/internal/a.Oracle", pos: "a.go:5"},
		{id: "repro/internal/a.Dead", sym: "repro/internal/a.Dead", pos: "a.go:9", lines: 3},
		{id: "repro/internal/a.NowUsed", sym: "repro/internal/a.NowUsed", pos: "a.go:20"},
		{id: "repro/cmd/x.helper", sym: "main.helper", main: "repro/cmd/x", pos: "cmd/x/main.go:4"},
		{id: "repro/cmd/y.other", sym: "main.other", main: "repro/cmd/y", pos: "cmd/y/main.go:4"},
	}
	// cmd/x links its own helper. It also has a main.other, which is
	// its own function of that name and says nothing of cmd/y's.
	dumpX := `# repro/cmd/x
main.main -> main.helper
main.main -> main.other
main.helper -> repro/internal/a.Used
main.helper -> repro/internal/a.NowUsed.func1
runtime.throw -> repro/internal/a.Dead.stkobj
`
	dumpY := `# repro/cmd/y
main.main -> repro/internal/a.Used
`
	dumps := map[string]map[string]bool{}
	for pkg, dump := range map[string]string{"repro/cmd/x": dumpX, "repro/cmd/y": dumpY} {
		linked, err := linkedFuncs(strings.NewReader(dump))
		if err != nil {
			t.Fatal(err)
		}
		dumps[pkg] = linked
	}
	list, err := parseUnlinkedList(strings.NewReader(`# oracles
repro/internal/a.Oracle   TestRoundTrip reads back what Used writes
repro/internal/a.NowUsed  TestX
repro/internal/a.Gone     TestY
`))
	if err != nil {
		t.Fatal(err)
	}
	got := checkLinks(decls, dumps, list)
	want := []string{
		"a.go:9: repro/internal/a.Dead (3 lines) is linked by no program and not on testdata/unlinked.txt",
		"cmd/y/main.go:4: repro/cmd/y.other (0 lines) is linked by no program and not on testdata/unlinked.txt",
		"unlinked.txt:3: repro/internal/a.NowUsed is linked now; drop the line",
		"unlinked.txt:4: repro/internal/a.Gone is not declared any more; drop the line",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if _, err := parseUnlinkedList(strings.NewReader("repro/internal/a.Oracle\n")); err == nil {
		t.Fatal("an entry naming nothing that needs it was accepted")
	}
}
