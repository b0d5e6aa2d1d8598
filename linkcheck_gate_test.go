//go:build linkcheck

package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLinkcheck builds every main package of the module and the bench/
// harness with inlining off (so a function the linker keeps is its own
// symbol, not only code folded into a caller) and -ldflags=-dumpdep,
// lists every non-test function with go/ast, and fails on a function no
// dump links that testdata/unlinked.txt does not name, and on a list
// entry that is linked or no longer declared. Run it with
// `make linkcheck`.
func TestLinkcheck(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	type pkg struct {
		ImportPath, Name, Dir string
		GoFiles               []string
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var decls []funcDecl
	var mains []pkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		var files []string
		for _, f := range p.GoFiles {
			rel, err := filepath.Rel(root, filepath.Join(p.Dir, f))
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, rel)
		}
		d, err := parseFuncDecls(p.ImportPath, p.Name, files)
		if err != nil {
			t.Fatal(err)
		}
		decls = append(decls, d...)
		if p.Name == "main" {
			mains = append(mains, p)
		}
	}
	mains = append(mains, pkg{ImportPath: "repro/bench", Dir: "bench"})

	bin := t.TempDir()
	dumps := map[string]map[string]bool{}
	for _, p := range mains {
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", filepath.Join(bin, "prog"), ".")
		cmd.Dir = p.Dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("building %s: %v\n%s", p.ImportPath, err, stderr.Bytes())
		}
		linked, err := linkedFuncs(&stderr)
		if err != nil {
			t.Fatal(err)
		}
		dumps[p.ImportPath] = linked
	}

	f, err := os.Open(filepath.Join("testdata", "unlinked.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	list, err := parseUnlinkedList(f)
	if err != nil {
		t.Fatalf("testdata/unlinked.txt: %v", err)
	}
	if bad := checkLinks(decls, dumps, list); len(bad) > 0 {
		t.Fatalf("%d finding(s):\n%s", len(bad), strings.Join(bad, "\n"))
	}
	t.Logf("%d functions declared, %d programs built, %d listed as unlinked", len(decls), len(mains), len(list))
}
