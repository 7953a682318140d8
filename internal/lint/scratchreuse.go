package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ScratchReuse enforces the pooled-scratch discipline the allocation-free
// hot paths rely on (align's greedyPool is the template): a value taken
// from a sync.Pool is dirty, function-local, and borrowed.
//
// Within the function that calls (*sync.Pool).Get, the analyzer requires:
//
//   - the Get result is bound to a variable (a discarded Get leaks the
//     pooled instance for no benefit);
//   - a reset/clear method is called on the value — or on a field of it —
//     before it is reused (Pool hands back instances with whatever state
//     the last user left);
//   - the value is returned to its pool with (*sync.Pool).Put on the same
//     function's paths;
//   - the value never escapes the function: not returned, not assigned to
//     a field, global, map or slice element, not sent on a channel. A
//     pooled slab that outlives its run aliases the next run's scratch —
//     the exact corruption the determinism suites cannot reliably catch.
//
// It also flags sync.Pool New functions that return non-pointer values:
// every Put of such a value boxes it into an interface, allocating the
// very garbage the pool exists to avoid.
var ScratchReuse = &Analyzer{
	Name: "scratchreuse",
	Doc: "enforces the pooled-scratch discipline: sync.Pool values must be " +
		"bound, reset before reuse, Put back, and must never escape the " +
		"borrowing function; Pool.New must return a pointer",
	Run: runScratchReuse,
}

func runScratchReuse(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				checkPoolNew(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkBorrows(pass, n.Body)
				}
				return false // checkBorrows descends into nested literals itself
			}
			return true
		})
	}
}

// isPoolMethod reports whether call is (*sync.Pool).<name>.
func isPoolMethod(info *types.Info, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedFrom(sig.Recv().Type(), "sync", "Pool")
}

// checkPoolNew flags sync.Pool literals whose New returns a non-pointer.
func checkPoolNew(pass *Pass, lit *ast.CompositeLit) {
	if t := pass.TypesInfo.TypeOf(lit); t == nil || !namedFrom(t, "sync", "Pool") {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "New" {
			continue
		}
		fn, ok := unparen(kv.Value).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if _, isNested := n.(*ast.FuncLit); isNested {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return true
			}
			t := pass.TypesInfo.TypeOf(ret.Results[0])
			if t == nil {
				return true
			}
			if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
				pass.Report(ret.Pos(), "sync.Pool New returns a non-pointer %s; every Put will box "+
					"it into an interface and allocate — return a pointer instead",
					types.TypeString(t, types.RelativeTo(pass.Pkg)))
			}
			return true
		})
	}
}

// borrow tracks one pooled value inside the borrowing function.
type borrow struct {
	name     *ast.Ident
	put      bool
	reset    bool
	escapePo []ast.Node // nodes where the value escapes
}

// checkBorrows analyzes one function body's Pool.Get discipline.
func checkBorrows(pass *Pass, body *ast.BlockStmt) {
	borrows := make(map[*types.Var]*borrow)

	// Pass A: find Get calls and how their results are bound.
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if ok && len(assign.Rhs) == 1 {
			if v := pooledVarOf(pass, assign); v != nil {
				id := assign.Lhs[0].(*ast.Ident)
				borrows[v] = &borrow{name: id}
				return true
			}
		}
		if call, ok := n.(*ast.CallExpr); ok && isPoolMethod(pass.TypesInfo, call, "Get") {
			if !isBoundGet(pass, body, call) {
				pass.Report(call.Pos(), "result of sync.Pool Get is not bound to a variable; "+
					"the pooled instance is lost and can never be Put back")
			}
		}
		return true
	})
	if len(borrows) == 0 {
		return
	}

	// Pass B: classify every other use of each borrowed variable.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPoolMethod(pass.TypesInfo, n, "Put") && len(n.Args) == 1 {
				if b := borrowOf(pass, borrows, n.Args[0]); b != nil {
					b.put = true
					return true
				}
			}
			if b, name := methodOnBorrow(pass, borrows, n); b != nil {
				if isResetName(name) {
					b.reset = true
				}
				return true
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if b := borrowOf(pass, borrows, rootExpr(r)); b != nil {
					b.escapePo = append(b.escapePo, r)
				}
			}
		case *ast.SendStmt:
			if b := borrowOf(pass, borrows, rootExpr(n.Value)); b != nil {
				b.escapePo = append(b.escapePo, n.Value)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				b := borrowOf(pass, borrows, rootExpr(rhs))
				if b == nil || i >= len(n.Lhs) {
					continue
				}
				if escapingLHS(pass, n.Lhs[i]) {
					b.escapePo = append(b.escapePo, rhs)
				}
			}
		}
		return true
	})

	for _, b := range borrows {
		if !b.reset {
			pass.Report(b.name.Pos(), "pooled scratch %s is used without a reset/clear call; "+
				"sync.Pool hands back dirty instances — reset it (or a field of it) before reuse",
				b.name.Name)
		}
		if !b.put {
			pass.Report(b.name.Pos(), "pooled scratch %s is never Put back to its pool in this "+
				"function; the borrow must end where it began", b.name.Name)
		}
		for _, e := range b.escapePo {
			pass.Report(e.Pos(), "pooled scratch %s escapes the borrowing function; a slab that "+
				"outlives its run aliases the next run's scratch", b.name.Name)
		}
	}
}

// pooledVarOf resolves assign to the local variable binding a Pool.Get
// result (directly or through a type assertion), nil otherwise.
func pooledVarOf(pass *Pass, assign *ast.AssignStmt) *types.Var {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	rhs := unparen(assign.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || !isPoolMethod(pass.TypesInfo, call, "Get") {
		return nil
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, _ := pass.TypesInfo.Defs[id].(*types.Var)
	if v == nil {
		v, _ = pass.TypesInfo.Uses[id].(*types.Var)
	}
	return v
}

// isBoundGet reports whether the Get call is the RHS of a binding
// assignment (possibly through a type assertion).
func isBoundGet(pass *Pass, body *ast.BlockStmt, get *ast.CallExpr) bool {
	bound := false
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		rhs := unparen(assign.Rhs[0])
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = unparen(ta.X)
		}
		if rhs == get {
			if id, ok := assign.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				bound = true
			}
		}
		return true
	})
	return bound
}

// borrowOf resolves an expression to the borrow it names, nil otherwise.
func borrowOf(pass *Pass, borrows map[*types.Var]*borrow, e ast.Expr) *borrow {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := pass.TypesInfo.Uses[id].(*types.Var)
	if v == nil {
		return nil
	}
	return borrows[v]
}

// methodOnBorrow reports the borrow whose variable roots the call's
// receiver chain (sc.tab.reset() roots at sc) and the method name.
func methodOnBorrow(pass *Pass, borrows map[*types.Var]*borrow, call *ast.CallExpr) (*borrow, string) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if b := borrowOf(pass, borrows, rootExpr(sel.X)); b != nil {
		return b, sel.Sel.Name
	}
	return nil, ""
}

// rootExpr strips selectors, indexes and parens down to the base
// expression: sc.tab[i].x roots at sc.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return unparen(e)
		}
	}
}

// escapingLHS reports whether assigning to lhs lets the RHS outlive the
// function: fields, globals, dereferences, and map/slice elements escape;
// plain local variables do not.
func escapingLHS(pass *Pass, lhs ast.Expr) bool {
	switch x := unparen(lhs).(type) {
	case *ast.Ident:
		v, _ := pass.TypesInfo.ObjectOf(x).(*types.Var)
		if v == nil {
			return false
		}
		// Package-level variables escape; locals (including named results,
		// which the return check covers) do not.
		return v.Parent() == pass.Pkg.Scope()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// isResetName reports whether a method name counts as re-initialising
// pooled state.
func isResetName(name string) bool {
	switch strings.ToLower(name) {
	case "reset", "clear", "init", "reinit":
		return true
	}
	return false
}
