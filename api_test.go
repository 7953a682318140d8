package affidavit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiSurface is the package's exported surface as its non-test sources
// declare it.
type apiSurface struct {
	// names holds one "kind name" line per exported const, var, func,
	// type and method ("method Type.Name"), sorted.
	names []string
	// ifaceMethods holds the methods the exported interfaces declare.
	ifaceMethods map[string]bool
}

// parseSurface parses the package's non-test files.
func parseSurface(t *testing.T) apiSurface {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := apiSurface{ifaceMethods: map[string]bool{}}
	add := func(kind, name string) { s.names = append(s.names, kind+" "+name) }
	for _, f := range pkgs["affidavit"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add("func", d.Name.Name)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id := recv.(*ast.Ident); id.IsExported() {
					add("method", id.Name+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								add(strings.ToLower(d.Tok.String()), id.Name)
							}
						}
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						add("type", sp.Name.Name)
						if it, ok := sp.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, id := range m.Names {
									s.ifaceMethods[id.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(s.names)
	return s
}

// TestPublicAPISurface compares the package's exported consts, vars,
// funcs, types and methods with testdata/api.txt, so a second front door
// cannot grow back unreviewed. Regenerate with `go test -run TestPublicAPISurface . -update`
// after an intended change.
func TestPublicAPISurface(t *testing.T) {
	const golden = "testdata/api.txt"
	got := strings.Join(parseSurface(t).names, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported surface differs from %s (rerun with -update if intended):\n%s", golden, got)
	}
}

// TestExportedFuncsHaveCallers: every exported func and method earns its
// place. It passes when non-test code outside this package names it
// (cmd/, internal/, examples/, bench/), when a root Example documents it
// (ExampleF, ExampleT_M), or, for a method, when an exported interface of
// the package declares a method of that name. Consts, types and vars are
// not gated. Calls are matched by selector name: a func by
// affidavit.Name, a method by any .Name selector.
func TestExportedFuncsHaveCallers(t *testing.T) {
	surface := parseSurface(t)
	funcs, methods := map[string]bool{}, map[string]bool{}
	documented := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		root, test := filepath.Dir(path) == ".", strings.HasSuffix(name, "_test.go")
		if root && !test || !root && test {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if root {
			// Root test files count only for the Examples they hold.
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					parts := strings.Split(strings.TrimPrefix(fd.Name.Name, "Example"), "_")
					documented["func "+parts[0]] = true
					if len(parts) > 1 {
						documented["method "+parts[0]+"."+parts[1]] = true
					}
				}
			}
			return nil
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "affidavit" {
				pkgName = "affidavit"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && pkgName != "" && id.Name == pkgName {
				funcs[sel.Sel.Name] = true
			} else {
				methods[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var orphans []string
	for _, line := range surface.names {
		kind, name, _ := strings.Cut(line, " ")
		switch {
		case documented[line]:
		case kind == "func" && funcs[name]:
		case kind == "method":
			m := name[strings.IndexByte(name, '.')+1:]
			if methods[m] || surface.ifaceMethods[m] {
				continue
			}
			orphans = append(orphans, line)
		case kind == "func":
			orphans = append(orphans, line)
		}
	}
	if len(orphans) > 0 {
		t.Errorf("%d exported funcs and methods have no caller outside the package:\n\t%s\n"+
			"For each: call it from non-test code under cmd/, internal/ or examples/, "+
			"document it with a root Example (ExampleF, ExampleT_M), or delete it.",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
}
