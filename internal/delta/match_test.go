package delta_test

import (
	"context"
	"errors"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/table"
)

func generatedPair(t *testing.T, name string, rows int, seed int64) *gen.Problem {
	t.Helper()
	spec, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.BuildRows(rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuildEmptyAndTiny: degenerate shapes — empty snapshots and a dozen
// records — convert to valid explanations that account for every record,
// for the reference tuple (non-identity functions included) and the
// all-identity tuple.
func TestBuildEmptyAndTiny(t *testing.T) {
	tiny := generatedPair(t, "bridges", 12, 5)
	empty, err := delta.NewInstance(table.New(tiny.Inst.Schema()), table.New(tiny.Inst.Schema()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for shape, inst := range map[string]*delta.Instance{"tiny": tiny.Inst, "empty": empty} {
		for name, funcs := range map[string]delta.FuncTuple{
			"reference": tiny.Reference.Funcs,
			"identity":  delta.IdentityTuple(inst.NumAttrs()),
		} {
			e, err := delta.BuildCtx(context.Background(), inst, funcs, delta.BuildOptions{})
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, name, err)
			}
			if err := e.Validate(); err != nil {
				t.Fatalf("%s/%s: %v", shape, name, err)
			}
			if len(e.CoreSrc)+len(e.Deleted) != inst.Source.Len() || len(e.CoreTgt)+len(e.Inserted) != inst.Target.Len() {
				t.Errorf("%s/%s: %d core, %d deleted, %d inserted for %d source and %d target records",
					shape, name, len(e.CoreSrc), len(e.Deleted), len(e.Inserted), inst.Source.Len(), inst.Target.Len())
			}
		}
	}
}

// TestBuildCtxCancelled: a cancelled context aborts the conversion with the
// context's error.
func TestBuildCtxCancelled(t *testing.T) {
	p := generatedPair(t, "ncvoter-1k", 1000, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := delta.BuildCtx(ctx, p.Inst, p.Reference.Funcs, delta.BuildOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}
