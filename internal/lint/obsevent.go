package lint

import (
	"go/ast"
	"go/types"
)

// ObsEvent enforces the observer rule: each run emits its pipeline events
// from its own goroutine only, so its event stream stays byte-deterministic
// for a fixed seed however runs fan out. Concretely, a call to an obs.Sink
// value (such as the sink obs.FromContext returns) or to an emit helper
// must not appear inside code that escapes onto another goroutine:
//
//   - any function literal launched by a `go` statement (or nested in one);
//   - any function literal passed directly as a call argument (fan-outs
//     like eval's seed pool and jobs.Pool run such callbacks on their own
//     goroutines) — except arguments to the synchronous sort/slices
//     helpers.
//
// Emission from a literal that is first assigned to a variable and invoked
// locally (the finish-closure idiom) stays allowed. Genuinely synchronous
// callbacks can justify themselves with //affidavit:ignore obsevent.
var ObsEvent = &Analyzer{
	Name: "obsevent",
	Doc: "requires pipeline event emission (calls to an obs.Sink, such as " +
		"obs.FromContext's, and emit helpers) to stay on the polling " +
		"goroutine: emission inside go-routines or function literals " +
		"handed to worker pools is reported",
	Run: runObsEvent,
}

func runObsEvent(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// Everything under a go statement runs off-goroutine,
				// including literals passed as arguments to the spawned call.
				checkEscaping(pass, n.Call, "a goroutine")
				return false
			case *ast.CallExpr:
				if syncCallee(pass.TypesInfo, n) {
					return true
				}
				for _, arg := range n.Args {
					if lit, ok := unparen(arg).(*ast.FuncLit); ok {
						checkEscaping(pass, lit.Body, "a function literal handed to "+calleeLabel(n))
					}
				}
			}
			return true
		})
	}
}

// syncCallee reports callees known to invoke their function arguments
// synchronously on the calling goroutine.
func syncCallee(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices", "strings", "bytes":
		return true
	}
	return false
}

// calleeLabel names the callee for the diagnostic.
func calleeLabel(call *ast.CallExpr) string {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "a call"
}

// checkEscaping reports every event emission lexically under n.
func checkEscaping(pass *Pass, n ast.Node, where string) {
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := emissionCall(pass.TypesInfo, call); ok {
			pass.Report(call.Pos(), "%s inside %s: pipeline events must be emitted from the "+
				"polling goroutine so event streams stay deterministic across worker counts",
				name, where)
		}
		return true
	})
}

// emissionCall reports whether the call emits a pipeline event: invoking
// an obs.Sink value or an emit helper.
func emissionCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if t := info.TypeOf(call.Fun); t != nil && namedFrom(t, "obs", "Sink") {
		return "obs.Sink call", true
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "emit" {
			return "emit call", true
		}
	case *ast.Ident:
		if fun.Name == "emit" {
			return "emit call", true
		}
	}
	return "", false
}
