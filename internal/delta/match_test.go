package delta_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/table"
)

// matchRows caps dataset sizes so the full-registry sweep stays fast under
// the race detector.
func matchRows(spec datasets.Spec) int {
	rows := spec.Rows
	if rows > 600 {
		rows = 600
	}
	if spec.DataAttrs > 40 && rows > 150 {
		rows = 150
	}
	return rows
}

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

func assertSameExplanation(t *testing.T, want, got *delta.Explanation) {
	t.Helper()
	if !reflect.DeepEqual(want.CoreSrc, got.CoreSrc) || !reflect.DeepEqual(want.CoreTgt, got.CoreTgt) {
		t.Error("core alignments differ")
	}
	if !reflect.DeepEqual(want.Deleted, got.Deleted) {
		t.Errorf("deletions differ: %v vs %v", want.Deleted, got.Deleted)
	}
	if !reflect.DeepEqual(want.Inserted, got.Inserted) {
		t.Errorf("insertions differ: %v vs %v", want.Inserted, got.Inserted)
	}
	if want.Funcs.Key() != got.Funcs.Key() {
		t.Error("function tuples differ")
	}
}

// checkPartitionedBuilds is the matching's acceptance table: for the
// reference tuple (non-identity functions included) and the all-identity
// tuple, BuildCtx at every worker count must reproduce Build's
// one-partition explanation byte for byte: same core alignment, deletions
// and insertions. Run under -race this also exercises the concurrent
// partition scans.
func checkPartitionedBuilds(t *testing.T, p *gen.Problem) {
	t.Helper()
	for name, funcs := range map[string]delta.FuncTuple{
		"reference": p.Reference.Funcs,
		"identity":  delta.IdentityTuple(p.Inst.NumAttrs()),
	} {
		want, err := delta.Build(p.Inst, funcs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8, 64} {
			got, err := delta.BuildCtx(context.Background(), p.Inst, funcs, delta.BuildOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			assertSameExplanation(t, want, got)
		}
	}
}

// TestBuildShardedMatchesSequential runs checkPartitionedBuilds over every
// registry dataset.
func TestBuildShardedMatchesSequential(t *testing.T) {
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			checkPartitionedBuilds(t, generatedPair(t, spec.Name, matchRows(spec), 11))
		})
	}
}

// TestBuildShardedEmptyAndTiny: degenerate shapes — empty snapshots and a
// worker count far above the record count — stay byte-identical.
func TestBuildShardedEmptyAndTiny(t *testing.T) {
	tiny := generatedPair(t, "bridges", 12, 5)
	empty, err := delta.NewInstance(table.New(tiny.Inst.Schema()), table.New(tiny.Inst.Schema()), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionedBuilds(t, tiny)
	e, err := delta.BuildCtx(context.Background(), empty, delta.IdentityTuple(empty.NumAttrs()),
		delta.BuildOptions{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.CoreSrc)+len(e.Deleted)+len(e.Inserted) != 0 {
		t.Errorf("empty instance: got %+v", e)
	}
}

// TestBuildCtxCancelled: a cancelled context aborts the conversion with the
// context's error, for one partition and for several.
func TestBuildCtxCancelled(t *testing.T) {
	p := generatedPair(t, "ncvoter-1k", 1000, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := delta.BuildCtx(ctx, p.Inst, p.Reference.Funcs,
			delta.BuildOptions{Workers: workers}); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: want context.Canceled, got %v", workers, err)
		}
	}
}
