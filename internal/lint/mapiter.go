package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// mapiterScope names the determinism-critical packages: every package
// whose output (explanations, blocks, stats JSON, reports) is pinned
// byte-identical across engines, the JSON encoders in the public package,
// and the journaling packages (jobstoreScope), whose replayed state and
// listings are compared byte for byte across restarts. Matching is by last
// path element (see inScope).
var mapiterScope = map[string]bool{
	"search":    true,
	"delta":     true,
	"blocking":  true,
	"induce":    true,
	"align":     true,
	"report":    true,
	"table":     true,
	"affidavit": true, // public package: Result.JSON, metrics text, sources
	"jobs":      true,
	"catalog":   true,
	"wal":       true,
}

// MapIter flags `for range` over a map in a determinism-critical package.
// Go randomises map iteration order per run, so any such loop that feeds
// ordered output (explanation records, induced candidate lists, JSON,
// Prometheus text) silently breaks the byte-identical guarantee the
// paper's evaluation depends on.
//
// A loop is allowed without annotation when the analyzer can see it is
// order-insensitive:
//
//   - the body only performs commutative accumulation: map writes indexed
//     by the loop key, delete(...), integer/boolean counter updates
//     (x++, x += v, x |= v, ...), optionally guarded by call-free ifs;
//   - or the loop only appends to a slice that the next statement sorts.
//
// Anything else needs `//affidavit:ordered <why>` on or above the range
// statement.
var MapIter = &Analyzer{
	Name: "mapiter",
	Doc: "flags unordered map iteration in determinism-critical packages " +
		"(search, delta, blocking, induce, align, report, table, the " +
		"public JSON/metrics encoders, and the jobs, catalog and wal " +
		"journals) unless the loop provably feeds an order-insensitive " +
		"sink or carries //affidavit:ordered",
	Run: runMapIter,
}

func runMapIter(pass *Pass) {
	if !inScope(pass.Pkg.Path(), mapiterScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmts := statementList(n)
			for i, stmt := range stmts {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok || !isMapType(pass.TypesInfo.TypeOf(rng.X)) {
					continue
				}
				key := rangeVar(rng.Key)
				val := rangeVar(rng.Value)
				if key == nil && val == nil {
					// `for range m`: iterations are indistinguishable, so
					// their order cannot matter.
					continue
				}
				var next ast.Stmt
				if i+1 < len(stmts) {
					next = stmts[i+1]
				}
				if appendThenSort(pass.TypesInfo, rng, next) {
					continue
				}
				if orderInsensitiveStmts(pass.TypesInfo, rng.Body.List, key) {
					continue
				}
				pass.Report(rng.Pos(), "unordered iteration over %s in determinism-critical package %s; "+
					"sort the keys first, or justify with //affidavit:ordered",
					types.TypeString(pass.TypesInfo.TypeOf(rng.X), types.RelativeTo(pass.Pkg)),
					pass.Pkg.Path())
			}
			return true
		})
	}
}

// statementList returns n's statement list when n owns one (the contexts a
// range statement can appear in with addressable siblings).
func statementList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// rangeVar resolves a range clause variable to its identifier; blank and
// absent variables return nil.
func rangeVar(e ast.Expr) *ast.Ident {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return id
}

// appendThenSort recognises the canonical sorted-keys idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)            // or sort.Ints / sort.Slice / slices.Sort...
//
// The append order varies run to run, but the sort makes the final slice a
// pure function of the key multiset.
func appendThenSort(info *types.Info, rng *ast.RangeStmt, next ast.Stmt) bool {
	if len(rng.Body.List) != 1 || next == nil {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	dst, ok := asg.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	if fn, ok := unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" || !isBuiltin(info, fn) {
		return false
	}
	if arg0, ok := call.Args[0].(*ast.Ident); !ok || arg0.Name != dst.Name {
		return false
	}
	// The next statement must sort the destination slice.
	es, ok := next.(*ast.ExprStmt)
	if !ok {
		return false
	}
	sortCall, ok := es.X.(*ast.CallExpr)
	if !ok || len(sortCall.Args) == 0 {
		return false
	}
	fn := calleeFunc(info, sortCall)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
		default:
			return false
		}
	case "slices":
		switch fn.Name() {
		case "Sort", "SortFunc", "SortStableFunc":
		default:
			return false
		}
	default:
		return false
	}
	sorted, ok := unparen(sortCall.Args[0]).(*ast.Ident)
	return ok && sorted.Name == dst.Name
}

// orderInsensitiveStmts reports whether every statement commutes across
// iterations: executing the loop body for the map's entries in any order
// produces identical state. key is the range key identifier (nil when
// blank), used to prove map writes cannot collide.
func orderInsensitiveStmts(info *types.Info, stmts []ast.Stmt, key *ast.Ident) bool {
	for _, s := range stmts {
		if !orderInsensitiveStmt(info, s, key) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(info *types.Info, s ast.Stmt, key *ast.Ident) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return orderInsensitiveAssign(info, s, key)
	case *ast.IncDecStmt:
		// x++ / x-- on integers commutes (wrap-around included); floats
		// round differently per order.
		return isIntExpr(info, s.X) && isCallFree(info, s.X)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		// delete(m, k) commutes: each key is visited once.
		if fn, ok := unparen(call.Fun).(*ast.Ident); ok && fn.Name == "delete" && isBuiltin(info, fn) {
			return isCallFree(info, call.Args[0]) && isCallFree(info, call.Args[1])
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.BlockStmt:
		return orderInsensitiveStmts(info, s.List, key)
	case *ast.IfStmt:
		if s.Init != nil && !orderInsensitiveStmt(info, s.Init, key) {
			return false
		}
		if !isCallFree(info, s.Cond) {
			return false
		}
		if !orderInsensitiveStmts(info, s.Body.List, key) {
			return false
		}
		return s.Else == nil || orderInsensitiveStmt(info, s.Else, key)
	}
	return false
}

func orderInsensitiveAssign(info *types.Info, s *ast.AssignStmt, key *ast.Ident) bool {
	switch s.Tok {
	case token.ASSIGN:
		// Plain writes only commute when the destinations cannot collide
		// across iterations: a map indexed by this iteration's key (keys
		// are distinct), or the blank identifier.
		for _, lhs := range s.Lhs {
			if isBlank(lhs) {
				continue
			}
			idx, ok := unparen(lhs).(*ast.IndexExpr)
			if !ok || !isMapType(info.TypeOf(idx.X)) {
				return false
			}
			ki, ok := unparen(idx.Index).(*ast.Ident)
			if !ok || key == nil || objectOf(info, ki) == nil || objectOf(info, ki) != objectOf(info, key) {
				return false
			}
		}
		for _, rhs := range s.Rhs {
			if !isCallFree(info, rhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative, associative integer accumulation; destinations may
		// collide freely. Float += is order-sensitive (rounding) and
		// string += is concatenation — both excluded by the int check.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		return isIntExpr(info, s.Lhs[0]) && isCallFree(info, s.Lhs[0]) && isCallFree(info, s.Rhs[0])
	}
	return false
}

// isBuiltin reports whether id resolves to a universe builtin.
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// objectOf resolves an identifier whether it defines or uses its object.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// isIntExpr reports whether e has integer type.
func isIntExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isCallFree reports whether evaluating e cannot run user code: no calls
// except the pure builtins len and cap.
func isCallFree(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := unparen(call.Fun).(*ast.Ident); ok && isBuiltin(info, fn) {
			switch fn.Name {
			case "len", "cap":
				return true
			}
		}
		pure = false
		return false
	})
	return pure
}
