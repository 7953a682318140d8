// Package linttest runs lint analyzers over fixture packages the way
// golang.org/x/tools/go/analysis/analysistest does, without the x/tools
// dependency: fixture sources live under testdata/src/<pkg>/, expected
// findings are `// want "regexp"` comments on the offending line, and the
// harness reports both missed and unexpected diagnostics.
//
// Fixture imports resolve first against testdata/src (so fixtures can
// declare stand-ins for repo packages like obs or search under the package
// path the analyzers key on), then against the standard library via the
// source importer.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"affidavit/internal/lint"
)

// Run analyzes the fixture package testdata/src/<pkgpath> with the given
// analyzers and compares the diagnostics against the fixture's // want
// comments. The fixture's package path is pkgpath itself, so a fixture
// directory named like a critical package ("search", "report") scopes
// exactly like its real counterpart.
func Run(t *testing.T, testdata string, pkgpath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	ld := newLoader(testdata)
	pkg, err := ld.load(pkgpath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkgpath, err)
	}
	got := lint.Run(pkg, analyzers)
	want := expectations(t, pkg.Fset, pkg.Files)

	matched := make([]bool, len(want))
	for _, d := range got {
		ok := false
		for i, w := range want {
			if matched[i] || w.file != d.Position.Filename || w.line != d.Position.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for i, w := range want {
		if !matched[i] {
			t.Errorf("missing diagnostic at %s:%d matching %q", w.file, w.line, w.rx)
		}
	}
}

// expectation is one parsed // want comment.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)`)
var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectations parses `// want "rx" ["rx"...]` comments; each quoted
// pattern is one expected diagnostic on that line.
func expectations(t *testing.T, fset *token.FileSet, files []*ast.File) []expectation {
	t.Helper()
	var want []expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
					text := strings.ReplaceAll(q[1], `\"`, `"`)
					rx, err := regexp.Compile(text)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, q[1], err)
					}
					want = append(want, expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].file != want[j].file {
			return want[i].file < want[j].file
		}
		return want[i].line < want[j].line
	})
	return want
}

// loader type-checks fixture packages, resolving imports fixture-first.
type loader struct {
	testdata string
	fset     *token.FileSet
	source   types.Importer
	cache    map[string]*loaded
}

type loaded struct {
	pkg   *lint.Package
	types *types.Package
	err   error
}

func newLoader(testdata string) *loader {
	fset := token.NewFileSet()
	return &loader{
		testdata: testdata,
		fset:     fset,
		source:   importer.ForCompiler(fset, "source", nil),
		cache:    make(map[string]*loaded),
	}
}

// load parses and type-checks testdata/src/<path>.
func (ld *loader) load(path string) (*lint.Package, error) {
	if c, ok := ld.cache[path]; ok {
		return c.pkg, c.err
	}
	c := &loaded{}
	ld.cache[path] = c
	c.pkg, c.types, c.err = ld.check(path)
	return c.pkg, c.err
}

func (ld *loader) check(path string) (*lint.Package, *types.Package, error) {
	dir := filepath.Join(ld.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := lint.NewTypesInfo()
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if _, err := os.Stat(filepath.Join(ld.testdata, "src", filepath.FromSlash(imp))); err == nil {
			p, err := ld.load(imp)
			_ = p
			if err != nil {
				return nil, err
			}
			return ld.cache[imp].types, nil
		}
		return ld.source.Import(imp)
	})}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return &lint.Package{Fset: ld.fset, Files: files, Types: tpkg, Info: info}, tpkg, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
