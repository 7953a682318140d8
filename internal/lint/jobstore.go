package lint

import (
	"go/ast"
	"go/types"
)

// jobstoreScope names the journaling packages. The job subsystem, the
// snapshot-history catalog and the log they both write through share one
// determinism contract, distinct from the explanation pipeline's: journal
// lines and content addresses are compared byte-for-byte across process
// restarts, so replay and dedupe only work while the on-disk encoding is
// a pure function of declared struct fields.
var jobstoreScope = map[string]bool{
	"jobs":    true,
	"catalog": true,
	"wal":     true,
}

// JobStore guards the byte-stability invariants of the durable job store
// (map iteration there is mapiter's, whose scope holds the same packages):
//
//   - JSON encoding of map-bearing values (json.Marshal, MarshalIndent,
//     or (*json.Encoder).Encode): journal lines and stored results are
//     the crash-recovery contract and feed content addressing, so their
//     bytes must follow declared field order, not encoder internals.
//     Keep journaled types map-free; if a map truly belongs in a record,
//     flatten it to a sorted slice first and justify the call with
//     //affidavit:ignore jobstore <why>;
//   - map-bearing type arguments to the log's generics (wal.Open,
//     wal.Log, wal.Schema): the log encodes its record type parameter,
//     which no call-site check inside package wal can see through.
var JobStore = &Analyzer{
	Name: "jobstore",
	Doc: "flags JSON encoding of map-bearing values and map-bearing wal " +
		"record types in the durable job store (internal/jobs, " +
		"internal/catalog, internal/wal), whose journal lines and content " +
		"addresses must be byte-stable across restarts",
	Run: runJobStore,
}

func runJobStore(pass *Pass) {
	if !inScope(pass.Pkg.Path(), jobstoreScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkJobEncode(pass, n)
			case *ast.Ident:
				checkLogRecord(pass, n)
			}
			return true
		})
	}
}

// checkJobEncode flags JSON encodes whose argument's type is or contains
// a map.
func checkJobEncode(pass *Pass, call *ast.CallExpr) {
	var arg ast.Expr
	switch {
	case isPkgFunc(pass.TypesInfo, call, "encoding/json", "Marshal"),
		isPkgFunc(pass.TypesInfo, call, "encoding/json", "MarshalIndent"):
		if len(call.Args) == 0 {
			return
		}
		arg = call.Args[0]
	case isJSONEncoderEncode(pass.TypesInfo, call):
		if len(call.Args) != 1 {
			return
		}
		arg = call.Args[0]
	default:
		return
	}
	t := pass.TypesInfo.TypeOf(arg)
	if t == nil || !containsMap(t, make(map[types.Type]bool)) {
		return
	}
	pass.Report(call.Pos(), "JSON-encoding map-bearing %s in the job store; "+
		"journal lines and stored results must be a pure function of declared "+
		"field order — flatten the map to a sorted slice, or justify with "+
		"//affidavit:ignore jobstore",
		types.TypeString(t, types.RelativeTo(pass.Pkg)))
}

// checkLogRecord flags an instantiation of one of package wal's generics
// with a type argument that is or contains a map.
func checkLogRecord(pass *Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil || lastSegment(obj.Pkg().Path()) != "wal" {
		return
	}
	targs := pass.TypesInfo.Instances[id].TypeArgs
	for i := 0; i < targs.Len(); i++ {
		if t := targs.At(i); containsMap(t, make(map[types.Type]bool)) {
			pass.Report(id.Pos(), "map-bearing %s instantiates wal.%s in the job store; "+
				"journal lines must be a pure function of declared field order — "+
				"flatten the map to a sorted slice, or justify with //affidavit:ignore jobstore",
				types.TypeString(t, types.RelativeTo(pass.Pkg)), id.Name)
		}
	}
}

// isJSONEncoderEncode reports whether call is (*encoding/json.Encoder).Encode.
func isJSONEncoderEncode(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Encode" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedFrom(sig.Recv().Type(), "json", "Encoder")
}

// containsMap walks t's structure — pointers, slices, arrays, struct
// fields — looking for a map. Interface-typed fields are treated as
// map-free (their dynamic contents are not statically knowable), and the
// seen set breaks recursive types.
func containsMap(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Pointer:
		return containsMap(u.Elem(), seen)
	case *types.Slice:
		return containsMap(u.Elem(), seen)
	case *types.Array:
		return containsMap(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMap(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}
