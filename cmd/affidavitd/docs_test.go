package main

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"

	"affidavit/internal/cliutil"
)

// TestDocsAPICoverage is the docs-drift check: every flag the binary
// registers and every route the mux serves must appear in docs/api.md.
// Flags are collected from the shared cliutil registration plus the
// flag.* literals in main.go; routes from the mux.Handle* pattern literals
// in server.go, each looked up without its method. A new flag or endpoint
// without documentation fails CI here.
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
	for _, name := range flags {
		if !strings.Contains(doc, "`-"+name+"`") {
			t.Errorf("flag -%s is not documented in docs/api.md", name)
		}
	}

	routes := routeLiterals(t, "server.go")
	if len(routes) < 10 {
		t.Fatalf("collected only %d routes — the extraction is broken", len(routes))
	}
	for _, route := range routes {
		if !strings.Contains(doc, route) {
			t.Errorf("route %s is not documented in docs/api.md", route)
		}
	}
}

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

// routeLiterals returns the paths of the patterns passed to
// mux.Handle/HandleFunc in the given file of this package, with any
// method prefix ("GET /jobs") stripped.
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
			if _, path, hasMethod := strings.Cut(route, " "); hasMethod {
				route = path
			}
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
