package lint

import (
	"go/ast"
	"go/types"
)

// nondetScope names the coded/search-path packages: everything between
// interning and rendering whose behaviour must be a pure function of the
// snapshots and the seed. The service layer (cmd/affidavitd, sessions) is
// deliberately out of scope — wall clocks and environment belong there.
// trace is in scope as a consumer of the deterministic event stream: its
// one sanctioned clock site carries a justified ignore directive, and the
// analyzer keeps new ones from sneaking in.
var nondetScope = map[string]bool{
	"search":   true,
	"delta":    true,
	"blocking": true,
	"induce":   true,
	"align":    true,
	"table":    true,
	"metafunc": true,
	"value":    true,
	"report":   true,
	"trace":    true,
}

// NonDet bans the ambient-nondeterminism entry points inside coded/search
// paths: wall clocks (time.Now/Since), the process-global math/rand source
// (per-probe seeded rngs are fine — those are methods on *rand.Rand),
// environment reads, maps formatted through fmt, and sync.Pool, whose
// reuse of scratch depends on GC timing. Each is a way for two runs over
// identical snapshots and seeds to produce different bytes or counts.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc: "bans time.Now/Since, global math/rand functions, os.Getenv, " +
		"map arguments to fmt and sync.Pool in coded/search-path packages, " +
		"where output must be a pure function of snapshots and seed",
	Run: runNonDet,
}

// fmtFuncs are the fmt functions whose rendering of a map argument depends
// on reflection over an unordered type.
var fmtFuncs = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

func runNonDet(pass *Pass) {
	if !inScope(pass.Pkg.Path(), nondetScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if tn, ok := pass.TypesInfo.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil &&
					tn.Pkg().Path() == "sync" && tn.Name() == "Pool" {
					pass.Report(id.Pos(), "sync.Pool in coded path %s: a pool hands back scratch "+
						"whose reuse depends on GC timing; let the run own its scratch", pass.Pkg.Path())
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				// Methods are fine: *rand.Rand methods draw from an explicit
				// seeded source, time.Time methods operate on a value.
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Report(call.Pos(), "time.%s in coded path %s: wall-clock values are "+
						"nondeterministic; thread timings through the caller or justify with "+
						"//affidavit:ignore nondet", fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				// Every package-level function draws from the shared global
				// source; New/NewSource construct explicit seeded ones.
				switch fn.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
				default:
					pass.Report(call.Pos(), "global %s.%s in coded path %s: draws from the "+
						"process-wide source; use a seeded *rand.Rand (per-probe rngs) instead",
						lastSegment(fn.Pkg().Path()), fn.Name(), pass.Pkg.Path())
				}
			case "os":
				switch fn.Name() {
				case "Getenv", "LookupEnv", "Environ":
					pass.Report(call.Pos(), "os.%s in coded path %s: environment reads make "+
						"runs machine-dependent; plumb configuration through Options",
						fn.Name(), pass.Pkg.Path())
				}
			case "fmt":
				if !fmtFuncs[fn.Name()] {
					return true
				}
				for _, arg := range call.Args {
					if isMapType(pass.TypesInfo.TypeOf(arg)) {
						pass.Report(arg.Pos(), "map argument to fmt.%s in coded path %s: "+
							"rendering depends on reflection over an unordered type; "+
							"render entries in sorted key order instead", fn.Name(), pass.Pkg.Path())
					}
				}
			}
			return true
		})
	}
}
