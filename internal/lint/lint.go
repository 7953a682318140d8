// Package lint is affidavit's in-tree static-analysis suite: analyzers
// that machine-check the determinism, context and observer invariants the
// reproduction depends on (every optimisation is pinned byte-identical to
// the sequential in-memory reference — an unsorted map iteration or a
// stray time.Now in a coded path silently breaks that), plus the
// byte-stability contract of the durable job store's journal.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) so a future migration to the real module is
// mechanical, but it is built entirely on the standard library: the repo
// vendors no dependencies, and the container this grows in has no module
// proxy. cmd/affidavitlint compiles the suite into a vet tool speaking the
// go vet -vettool unit-checker protocol.
//
// Two comment directives suppress findings, and both demand a
// justification so the escape hatch documents itself:
//
//	//affidavit:ordered <why this loop is order-insensitive>
//	//affidavit:ignore <analyzer> <why this finding does not apply>
//
// A directive covers diagnostics on its own line and on the line directly
// below it (so it works both as a trailing comment and as a standalone
// comment above the statement). A directive without a justification does
// not suppress anything — the finding is reported with a note instead.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check, shaped like analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //affidavit:ignore directives.
	Name string
	// Doc is the one-paragraph description -list prints.
	Doc string
	// Run inspects the package and reports findings through pass.Report.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer, shaped like
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Package bundles the inputs every analyzer needs: syntax, types and
// positions for one compilation unit.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewTypesInfo returns a types.Info with every map the analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// Suite returns every analyzer, in stable order.
func Suite() []*Analyzer {
	return []*Analyzer{
		MapIter,
		NonDet,
		CtxFlow,
		ObsEvent,
		JobStore,
		DocComment,
	}
}

// Run applies the analyzers to pkg, filters suppressed findings, drops
// findings positioned in _test.go files (the invariants guard shipped
// code; tests assert them), and returns the rest sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		a.Run(pass)
	}
	dirs := collectDirectives(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		if strings.HasSuffix(d.Position.Filename, "_test.go") {
			continue
		}
		switch dirs.covers(d) {
		case coverJustified:
			continue
		case coverUnjustified:
			d.Message += " (an //affidavit directive matches but carries no justification — explain why, e.g. //affidavit:ordered keys feed a sorted slice)"
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}

// directive is one //affidavit: suppression comment.
type directive struct {
	file      string
	line      int
	analyzer  string // "" = ordered shorthand (covers mapiter)
	justified bool
}

type directiveSet []directive

type coverage int

const (
	coverNone coverage = iota
	coverUnjustified
	coverJustified
)

// covers reports whether a directive on the diagnostic's line or the line
// above suppresses it.
func (ds directiveSet) covers(d Diagnostic) coverage {
	cov := coverNone
	for _, dir := range ds {
		if dir.file != d.Position.Filename {
			continue
		}
		if dir.line != d.Position.Line && dir.line != d.Position.Line-1 {
			continue
		}
		name := dir.analyzer
		if name == "" {
			name = MapIter.Name
		}
		if name != d.Analyzer {
			continue
		}
		if dir.justified {
			return coverJustified
		}
		cov = coverUnjustified
	}
	return cov
}

// collectDirectives scans every comment for affidavit directives.
func collectDirectives(fset *token.FileSet, files []*ast.File) directiveSet {
	var ds directiveSet
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//affidavit:")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				kind, rest, _ := strings.Cut(text, " ")
				rest = strings.TrimSpace(rest)
				switch kind {
				case "ordered":
					ds = append(ds, directive{
						file:      pos.Filename,
						line:      pos.Line,
						justified: rest != "",
					})
				case "ignore":
					name, why, _ := strings.Cut(rest, " ")
					ds = append(ds, directive{
						file:      pos.Filename,
						line:      pos.Line,
						analyzer:  name,
						justified: strings.TrimSpace(why) != "",
					})
				}
			}
		}
	}
	return ds
}

// lastSegment returns the final element of a package path.
func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// inScope reports whether the package path names one of the packages a
// scoped analyzer guards. Paths match on their last element, so
// analysistest-style fixture packages ("search", "report") scope exactly
// like their real counterparts ("affidavit/internal/search").
func inScope(pkgPath string, scope map[string]bool) bool {
	return scope[lastSegment(pkgPath)]
}

// isPkgFunc reports whether the call resolves to the package-level
// function pkgPath.name (methods have a receiver and never match).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// unparen strips parentheses (go.mod pins go1.21, predating ast.Unparen).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves the called function object, if statically known.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isMapType reports whether t's core type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// namedFrom reports whether t is (or points to) the named type
// pkgLastSeg.name, matching the defining package by last path element so
// fixtures scope like the real tree.
func namedFrom(t types.Type, pkgLastSeg, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && lastSegment(obj.Pkg().Path()) == pkgLastSeg
}
