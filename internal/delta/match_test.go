package delta_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/spill"
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

// matchBudget is tiny enough that every matching with more than a few
// dozen records keeps its member lists on disk.
const matchBudget = 1 << 12

// checkPartitionedBuilds is the matching's acceptance table: for the
// reference tuple (non-identity functions included) and the all-identity
// tuple, BuildCtx at every worker count — member lists in memory (budget
// 0), or on disk under a tiny budget — must reproduce Build's one-partition
// explanation byte for byte: same core alignment, deletions and insertions.
// On disk the spilled volume must not depend on the worker count (spill
// events are part of the deterministic event stream). Run under -race this
// also exercises the concurrent partition scans.
func checkPartitionedBuilds(t *testing.T, p *gen.Problem, budget int64, dir string) {
	t.Helper()
	for name, funcs := range map[string]delta.FuncTuple{
		"reference": p.Reference.Funcs,
		"identity":  delta.IdentityTuple(p.Inst.NumAttrs()),
	} {
		want, err := delta.Build(p.Inst, funcs)
		if err != nil {
			t.Fatal(err)
		}
		var spilled [2]int64
		for i, workers := range []int{1, 2, 8, 64} {
			opts := delta.BuildOptions{Workers: workers}
			if budget > 0 {
				opts.Spill = spill.NewManager(budget, dir)
				opts.SpillStats = &spill.Stats{}
			}
			got, err := delta.BuildCtx(context.Background(), p.Inst, funcs, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			assertSameExplanation(t, want, got)
			if budget == 0 {
				continue
			}
			st := [2]int64{opts.SpillStats.Bytes(), opts.SpillStats.Partitions()}
			if i == 0 {
				spilled = st
			}
			if st[0] == 0 || st[1] == 0 || st != spilled {
				t.Fatalf("%s workers=%d: spilled (bytes, partitions) = %v, want non-zero and %v as at workers=1",
					name, workers, st, spilled)
			}
		}
	}
}

func checkRegistry(t *testing.T, budget int64) {
	dir := t.TempDir()
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			checkPartitionedBuilds(t, generatedPair(t, spec.Name, matchRows(spec), 11), budget, dir)
		})
	}
}

// TestBuildShardedMatchesSequential and TestBuildExternalMatchesSequential
// are the two halves — member lists in memory, member lists on disk — of
// checkPartitionedBuilds over every registry dataset.
func TestBuildShardedMatchesSequential(t *testing.T)  { checkRegistry(t, 0) }
func TestBuildExternalMatchesSequential(t *testing.T) { checkRegistry(t, matchBudget) }

// TestBuildShardedEmptyAndTiny: degenerate shapes — empty snapshots and a
// worker count far above the record count — stay byte-identical.
func TestBuildShardedEmptyAndTiny(t *testing.T) {
	tiny := generatedPair(t, "bridges", 12, 5)
	empty, err := delta.NewInstance(table.New(tiny.Inst.Schema()), table.New(tiny.Inst.Schema()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		checkPartitionedBuilds(t, tiny, budget, t.TempDir())
	}
	e, err := delta.BuildCtx(context.Background(), empty, delta.IdentityTuple(empty.NumAttrs()),
		delta.BuildOptions{Workers: 64, Spill: spill.NewManager(1, t.TempDir())})
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

// TestBuildExternalCancelled: cancellation propagates out of a budgeted
// matching instead of falling back to memory.
func TestBuildExternalCancelled(t *testing.T) {
	p := generatedPair(t, "ncvoter-1k", 1000, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := delta.BuildCtx(ctx, p.Inst, p.Reference.Funcs, delta.BuildOptions{
		Spill: spill.NewManager(matchBudget, t.TempDir()),
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestBuildSpillFailureFallsBack: the budget is advisory. When the disk
// fails — here the manager's directory does not exist, so no pager can be
// created — the matching reruns on in-memory partitions and returns the
// unbudgeted explanation with a nil error; a cancelled context still
// returns its own error, never the fallback.
func TestBuildSpillFailureFallsBack(t *testing.T) {
	p := generatedPair(t, "ncvoter-1k", 1000, 11)
	want, err := delta.Build(p.Inst, p.Reference.Funcs)
	if err != nil {
		t.Fatal(err)
	}
	broken := func() *spill.Manager {
		return spill.NewManager(matchBudget, filepath.Join(t.TempDir(), "missing"))
	}
	for _, workers := range []int{1, 4} {
		st := &spill.Stats{}
		got, err := delta.BuildCtx(context.Background(), p.Inst, p.Reference.Funcs,
			delta.BuildOptions{Workers: workers, Spill: broken(), SpillStats: st})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertSameExplanation(t, want, got)
		if st.Bytes() != 0 {
			t.Errorf("workers=%d: %d bytes spilled to a directory that does not exist", workers, st.Bytes())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := delta.BuildCtx(ctx, p.Inst, p.Reference.Funcs,
		delta.BuildOptions{Spill: broken()}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: want context.Canceled, got %v", err)
	}
}
