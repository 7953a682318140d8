package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatch keeps .github/workflows/ci.yml honest: `go test -run
// 'A|B'` exits 0 when an alternative matches nothing, so a step whose suite
// was renamed or deleted would keep passing while testing less. For every
// `go test` command in the workflow, every alternative of its -run, -bench
// and -fuzz patterns must match at least one Test/Benchmark/Fuzz function
// in the packages that command lists.
func TestCIPatternsMatch(t *testing.T) {
	const root = "../.."
	raw, err := os.ReadFile(filepath.Join(root, ".github/workflows/ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// -run also selects fuzz targets (their seed corpus) and examples.
	prefixes := map[string][]string{
		"-run":   {"Test", "Fuzz", "Example"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	joined := strings.ReplaceAll(string(raw), "\\\n", " ")
	for _, line := range strings.Split(joined, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, " | ")
		// No quoted argument of a `go test` line contains a space, so
		// fields minus their quotes are the arguments.
		args := strings.Fields(cmd)
		for i := range args {
			args[i] = strings.Trim(args[i], `'"`)
		}
		var pkgs []string
		for _, a := range args {
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		funcs := testFuncs(t, root, pkgs)
		for i, a := range args[:max(len(args)-1, 0)] {
			want, ok := prefixes[a]
			if !ok || args[i+1] == "^$" {
				continue
			}
			for _, alt := range strings.Split(args[i+1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: %s %q: %v", a, alt, err)
					continue
				}
				checked++
				if !anyMatch(re, funcs, want) {
					t.Errorf("ci.yml: `go test %s`: %s alternative %q matches no %s function in %v",
						strings.TrimSpace(cmd), a, alt, strings.Join(want, "/"), pkgs)
				}
			}
		}
	}
	if checked < 40 {
		t.Fatalf("checked only %d pattern alternatives — the extraction is broken", checked)
	}
}

func anyMatch(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, f := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) && re.MatchString(f) {
				return true
			}
		}
	}
	return false
}

// testFuncs returns the names of the top-level functions declared in the
// _test.go files of the given package arguments ("./x/" or "./x/...",
// relative to root).
func testFuncs(t *testing.T, root string, pkgs []string) []string {
	t.Helper()
	var names []string
	parseDir := func(dir string) {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "...")
		dir = filepath.Join(root, dir)
		if !recursive {
			parseDir(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				parseDir(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
