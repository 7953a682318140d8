package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"affidavit/internal/cliutil"
)

// TestDocsAPICoverage is the docs-drift check, in both directions: every
// flag the binary registers and every route the mux serves must appear in
// docs/api.md, and every route row and flag row of docs/api.md must name a
// route the mux serves or a flag the binary registers. Flags are collected
// from the shared cliutil registration plus the flag.* literals in
// main.go; routes from the mux.Handle* pattern literals in server.go. A
// new flag or endpoint without documentation fails CI here, and so does a
// deleted one that is still documented.
func TestDocsAPICoverage(t *testing.T) {
	raw, err := os.ReadFile("../../docs/api.md")
	if err != nil {
		t.Fatalf("docs/api.md must exist: %v", err)
	}
	doc := string(raw)

	fs := flag.NewFlagSet("affidavitd", flag.ContinueOnError)
	cliutil.Register(fs, cliutil.Defaults{})
	var flags []string
	fs.VisitAll(func(f *flag.Flag) { flags = append(flags, f.Name) })
	flags = append(flags, flagLiterals(t, "main.go")...)
	if len(flags) < 20 {
		t.Fatalf("collected only %d flags — the extraction is broken", len(flags))
	}
	registered := make(map[string]bool, len(flags))
	for _, name := range flags {
		registered[name] = true
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("flag -%s is not documented in docs/api.md", name)
		}
	}

	patterns := routeLiterals(t, "server.go")
	if len(patterns) < 10 {
		t.Fatalf("collected only %d routes — the extraction is broken", len(patterns))
	}
	served := make(map[string]bool, len(patterns))
	for _, pattern := range patterns {
		served[pattern] = true
		path := pattern
		if _, p, hasMethod := strings.Cut(pattern, " "); hasMethod {
			path = p
		}
		if !strings.Contains(doc, path) {
			t.Errorf("route %s is not documented in docs/api.md", path)
		}
	}

	var routeRows, flagRows int
	for _, line := range strings.Split(doc, "\n") {
		if m := routeRow.FindStringSubmatch(line); m != nil {
			routeRows++
			for _, method := range strings.Split(m[1], ", ") {
				// A pattern without a method serves every method.
				if !served[method+" "+m[2]] && !served[m[2]] {
					t.Errorf("docs/api.md documents %s %s, which the mux does not serve", method, m[2])
				}
			}
		} else if m := flagRow.FindStringSubmatch(line); m != nil {
			flagRows++
			if !registered[m[1]] {
				t.Errorf("docs/api.md documents flag -%s, which the binary does not register", m[1])
			}
		}
	}
	if routeRows < 10 || flagRows < 20 {
		t.Fatalf("read only %d route rows and %d flag rows from docs/api.md — the extraction is broken", routeRows, flagRows)
	}
}

// TestDocCitationsExist fails when a comment or a document cites a
// Markdown file that does not exist. It scans every .go file of the
// module, README.md and docs/*.md for names ending in .md; each must
// resolve against the citing file's directory or the repository root. In
// a Markdown link only the target counts, not the link text. CHANGES.md
// and ROADMAP.md are history and may name anything.
func TestDocCitationsExist(t *testing.T) {
	const root = "../.."
	files := []string{filepath.Join(root, "README.md")}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 100 {
		t.Fatalf("collected only %d files — the walk is broken", len(files))
	}
	cited := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := linkText.ReplaceAllString(string(raw), "(")
		for _, name := range mdCitation.FindAllString(text, -1) {
			if name == "CHANGES.md" || name == "ROADMAP.md" {
				continue
			}
			cited++
			if !fileExists(filepath.Join(filepath.Dir(file), name)) && !fileExists(filepath.Join(root, name)) {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s cites %s, which does not exist", rel, name)
			}
		}
	}
	if cited < 10 {
		t.Fatalf("found only %d citations — the extraction is broken", cited)
	}
}

// TestCmdPathsExist fails when README.md, docs/*.md, the verify skill or
// the CI workflow cites a ./cmd/<name> package that does not exist, as
// the go run and go build lines of a folded or renamed binary would.
func TestCmdPathsExist(t *testing.T) {
	const root = "../.."
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files,
		filepath.Join(root, "README.md"),
		filepath.Join(root, ".claude/skills/verify/SKILL.md"),
		filepath.Join(root, ".github/workflows/ci.yml"))
	cited := 0
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cmdPath.FindAllStringSubmatch(string(raw), -1) {
			cited++
			if info, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil || !info.IsDir() {
				rel, _ := filepath.Rel(root, file)
				t.Errorf("%s cites %s, which does not exist", rel, m[0])
			}
		}
	}
	if cited < 20 {
		t.Fatalf("found only %d ./cmd/ paths — the extraction is broken", cited)
	}
}

// cmdPath matches a ./cmd/<name> package path and captures the name.
var cmdPath = regexp.MustCompile(`\./cmd/([\w-]+)`)

// mdCitation matches a cited Markdown file name, with its path if any.
var mdCitation = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// linkText matches the text part of a Markdown link, up to its target.
var linkText = regexp.MustCompile(`\[[^\]\n]*\]\(`)

func fileExists(path string) bool {
	info, err := os.Stat(path)
	return err == nil && !info.IsDir()
}

// routeRow matches a route row of docs/api.md's route table: its methods
// and its path.
var routeRow = regexp.MustCompile(`^\| ([A-Z]+(?:, [A-Z]+)*) \| ` + "`([^`]+)`" + ` \|`)

// flagRow matches a row of docs/api.md's flag tables: the flag's name.
var flagRow = regexp.MustCompile(`^\| ` + "`-([a-z0-9-]+)`" + ` \|`)

// flagLiterals returns the names passed to flag.String/Bool/Int/... in
// the given file of this package.
func flagLiterals(t *testing.T, file string) []string {
	t.Helper()
	var names []string
	inspectCalls(t, file, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) < 3 {
			return
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return
		}
		switch sel.Sel.Name {
		case "String", "Bool", "Int", "Int64", "Float64", "Duration":
			if name, ok := stringLiteral(call.Args[0]); ok {
				names = append(names, name)
			}
		}
	})
	return names
}

// routeLiterals returns the patterns passed to mux.Handle/HandleFunc in
// the given file of this package ("GET /jobs", "/debug/pprof/").
func routeLiterals(t *testing.T, file string) []string {
	t.Helper()
	var routes []string
	inspectCalls(t, file, func(call *ast.CallExpr) {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) != 2 {
			return
		}
		if sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc" {
			return
		}
		if route, ok := stringLiteral(call.Args[0]); ok {
			routes = append(routes, route)
		}
	})
	return routes
}

func inspectCalls(t *testing.T, file string, visit func(*ast.CallExpr)) {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

func stringLiteral(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	return strings.Trim(lit.Value, `"`), true
}
