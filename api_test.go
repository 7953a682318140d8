package affidavit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPISurface compares the package's exported consts, vars,
// funcs, types and methods with testdata/api.txt, so a second front door
// cannot grow back unreviewed. Regenerate with `go test -run TestPublicAPISurface . -update`
// after an intended change.
func TestPublicAPISurface(t *testing.T) {
	const golden = "testdata/api.txt"
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	add := func(kind, name string) { names = append(names, kind+" "+name) }
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
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								add(strings.ToLower(d.Tok.String()), id.Name)
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add("type", s.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	got := strings.Join(names, "\n") + "\n"
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
