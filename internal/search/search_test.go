package search_test

import (
	"context"
	"slices"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/gen"
	"affidavit/internal/metafunc"
	"affidavit/internal/obs"
	"affidavit/internal/search"
	"affidavit/internal/table"
)

// TestRunningExample solves I1 from H^id with the paper's Figure 4
// parameters and must recover the optimal explanation E1: 13 aligned
// records, cost 77, and the reference functions on the non-key attributes.
func TestRunningExample(t *testing.T) {
	inst := fixture.Instance()
	opts := search.DefaultOptions()
	opts.Beta = 2
	opts.QueueWidth = 3
	opts.Seed = 1
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost != fixture.ReferenceCost {
		t.Errorf("cost = %v, want %d\nfuncs: %v", res.Cost, fixture.ReferenceCost,
			describeTuple(res.Explanation.Funcs))
	}
	if res.Explanation.CoreSize() != 13 {
		t.Errorf("core = %d, want 13", res.Explanation.CoreSize())
	}
	ft := res.Explanation.Funcs
	ref := fixture.ReferenceFuncs()
	// The non-key, non-Date functions must match the reference exactly.
	for _, a := range []int{fixture.Type, fixture.Val, fixture.Unit, fixture.Org} {
		if ft[a].Key() != ref[a].Key() {
			t.Errorf("attribute %s: got %s, want %s",
				inst.Schema().Attr(a), ft[a], ref[a])
		}
	}
	// Date admits two equally optimal ψ=2 rewrites (prefix replacement as
	// in the paper, or the whole-value suffix replacement); either must
	// realise the same transformation.
	if got := ft[fixture.Date].Apply("99991231"); got != "20180701" {
		t.Errorf("Date('99991231') = %q, want 20180701 via %s", got, ft[fixture.Date])
	}
	if got := ft[fixture.Date].Apply("20130416"); got != "20130416" {
		t.Errorf("Date('20130416') = %q, want unchanged via %s", got, ft[fixture.Date])
	}
	// The key attributes must carry value mappings reproducing the correct
	// alignment on the core.
	refExpl := fixture.ReferenceExplanation()
	for i, s := range refExpl.CoreSrc {
		want := inst.Target.Record(refExpl.CoreTgt[i])
		got := ft.Apply(inst.Source.Record(s))
		if !got.Equal(want) {
			t.Errorf("core record %d: F(s) = %v, want %v", s, got, want)
		}
	}
}

func describeTuple(ft delta.FuncTuple) string {
	out := "("
	for i, f := range ft {
		if i > 0 {
			out += ", "
		}
		out += f.String()
	}
	return out + ")"
}

// TestRunningExampleOverlapConfig solves I1 with the Hs configuration
// (β = 1, ϱ = 1, overlap start state). This is the paper's intro trap: the
// a-priori matcher may assume Date unchanged (10 of 13 pairs agree on it),
// and with ϱ = 1 there is no backtracking to repair that, costing the three
// '9999…'→'2018…' alignments. A near-optimal explanation (≤ 84 = 77 + 7)
// is the faithful outcome; the greedy config must still crush the trivial
// explanation's 112.
func TestRunningExampleOverlapConfig(t *testing.T) {
	inst := fixture.Instance()
	opts := search.OverlapOptions()
	opts.Seed = 3
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Cost > 84 {
		t.Errorf("cost = %v, want ≤ 84\nfuncs: %v", res.Cost,
			describeTuple(res.Explanation.Funcs))
	}
	if res.Cost >= fixture.TrivialCost {
		t.Errorf("Hs did not beat the trivial explanation: %v", res.Cost)
	}
	if res.Stats.StartLevel == 0 {
		t.Error("overlap start should pre-assign attributes")
	}
}

// TestRunningExampleEmptyStart solves I1 from H∅.
func TestRunningExampleEmptyStart(t *testing.T) {
	inst := fixture.Instance()
	opts := search.DefaultOptions()
	opts.Start = search.StartEmpty
	opts.Seed = 5
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != fixture.ReferenceCost {
		t.Errorf("cost = %v, want %d", res.Cost, fixture.ReferenceCost)
	}
}

// TestSeedDeterminism: equal seeds must give identical explanations.
func TestSeedDeterminism(t *testing.T) {
	inst := fixture.Instance()
	opts := search.DefaultOptions()
	opts.Seed = 42
	a, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Explanation.Funcs.Key() != b.Explanation.Funcs.Key() {
		t.Error("same seed produced different explanations")
	}
}

// TestFigure4SearchTree watches the H^id search on I1 with the Figure 4
// parameters (α=0.5, β=2, ϱ=3) through the run's event sink and checks the
// qualitative shape: the search polls several states and terminates on an
// end state whose cost equals the optimum, with the ID1/ID2 key columns —
// explainable only by value mappings — decided as mappings.
func TestFigure4SearchTree(t *testing.T) {
	inst := fixture.Instance()
	opts := search.DefaultOptions()
	opts.Beta = 2
	opts.QueueWidth = 3
	opts.Seed = 1
	var polls []obs.Event
	ctx := obs.ContextWithSink(context.Background(), func(ev obs.Event) {
		if ev.Kind == obs.KindPoll {
			polls = append(polls, ev)
		}
	})
	res, err := search.Run(ctx, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(polls) < 3 {
		t.Fatalf("expected a multi-step search, got %d polls: %+v", len(polls), polls)
	}
	if last := polls[len(polls)-1]; last.Cost != res.Cost {
		t.Errorf("final polled state cost %v ≠ result cost %v", last.Cost, res.Cost)
	}
	for _, a := range []int{fixture.ID1, fixture.ID2} {
		if _, ok := res.Explanation.Funcs[a].(*metafunc.Mapping); !ok {
			t.Errorf("attribute %d ends as %v, want a value mapping", a, res.Explanation.Funcs[a])
		}
	}
}

// TestIdenticalSnapshots: when nothing changed, the all-identity end state
// explains everything with cost 0.
func TestIdenticalSnapshots(t *testing.T) {
	s := table.MustSchema("a", "b")
	rows := []table.Record{{"1", "x"}, {"2", "y"}, {"3", "z"}}
	src := table.MustFromRows(s, rows)
	tgt := table.MustFromRows(s, rows)
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), inst, search.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 || res.Explanation.CoreSize() != 3 {
		t.Errorf("cost = %v core = %d, want 0 and 3", res.Cost, res.Explanation.CoreSize())
	}
}

// TestPureInsertions: extra target records must be reported as insertions.
func TestPureInsertions(t *testing.T) {
	s := table.MustSchema("a")
	src := table.MustFromRows(s, []table.Record{{"1"}, {"2"}})
	tgt := table.MustFromRows(s, []table.Record{{"1"}, {"2"}, {"3"}})
	inst, _ := delta.NewInstance(src, tgt, nil)
	res, err := search.Run(context.Background(), inst, search.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanation.Inserted) != 1 || res.Explanation.CoreSize() != 2 {
		t.Errorf("insertions = %d core = %d", len(res.Explanation.Inserted), res.Explanation.CoreSize())
	}
}

// TestOptionValidation: bad options must be rejected, not crash.
func TestOptionValidation(t *testing.T) {
	inst := fixture.Instance()
	bad := search.DefaultOptions()
	bad.Beta = 0
	if _, err := search.Run(context.Background(), inst, bad); err == nil {
		t.Error("Beta=0 accepted")
	}
	bad = search.DefaultOptions()
	bad.Alpha = 1.5
	if _, err := search.Run(context.Background(), inst, bad); err == nil {
		t.Error("Alpha=1.5 accepted")
	}
	bad = search.DefaultOptions()
	bad.QueueWidth = 0
	if _, err := search.Run(context.Background(), inst, bad); err == nil {
		t.Error("QueueWidth=0 accepted")
	}
	bad = search.DefaultOptions()
	bad.QueueWidth = -3
	if _, err := search.Run(context.Background(), inst, bad); err == nil {
		t.Error("QueueWidth=-3 accepted")
	}
}

// TestStartStrategyString covers the Stringer.
func TestStartStrategyString(t *testing.T) {
	if search.StartOverlap.String() != "Hs" || search.StartID.String() != "Hid" ||
		search.StartEmpty.String() != "H∅" {
		t.Error("StartStrategy strings wrong")
	}
	if search.StartStrategy(9).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestNeverWorseThanTrivial: a search that runs to an end state must not
// return it when it costs more than the always-available trivial
// explanation. On this flight chain the queue's first end state carries
// mapping parameters worth a few percent more than inserting every
// target record; the run has to fall back to E∅.
func TestNeverWorseThanTrivial(t *testing.T) {
	spec, err := datasets.Get("flight-500k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.BuildRows(1000, 1_000_004)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 1, Eta: 0.1, Tau: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := delta.NewInstance(ch.Snapshots[0], ch.Snapshots[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Seed = 1
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cancelled {
		t.Fatal("run was cancelled; the test needs a completed search")
	}
	trivial := delta.CostModel{Alpha: opts.Alpha}.TrivialCost(inst.NumAttrs(), inst.Target.Len())
	if res.Cost > trivial {
		t.Errorf("cost %v exceeds the trivial explanation's %v", res.Cost, trivial)
	}
	if got := (delta.CostModel{Alpha: opts.Alpha}).Cost(res.Explanation); got != res.Cost {
		t.Errorf("Result.Cost %v does not match its explanation's cost %v", res.Cost, got)
	}
}

// testRows caps dataset sizes so the registry sweeps stay fast enough for
// the race detector: narrow datasets keep a few hundred rows, the very
// wide ones (plista, flight-1k, uniprot) fewer.
func testRows(spec datasets.Spec) int {
	rows := spec.Rows
	if rows > 400 {
		rows = 400
	}
	if spec.DataAttrs > 40 && rows > 120 {
		rows = 120
	}
	return rows
}

// assertSameResult fails unless two runs agree byte for byte: explanation
// (function tuple, core alignment, deletions, insertions), cost, and every
// statistic but wall time.
func assertSameResult(t *testing.T, a, b *search.Result) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Errorf("cost: %v vs %v", a.Cost, b.Cost)
	}
	if ak, bk := a.Explanation.Funcs.Key(), b.Explanation.Funcs.Key(); ak != bk {
		t.Errorf("function tuples differ:\n  %s\n  %s", ak, bk)
	}
	if !slices.Equal(a.Explanation.Deleted, b.Explanation.Deleted) {
		t.Errorf("deletions differ: %v vs %v", a.Explanation.Deleted, b.Explanation.Deleted)
	}
	if !slices.Equal(a.Explanation.Inserted, b.Explanation.Inserted) {
		t.Errorf("insertions differ: %v vs %v", a.Explanation.Inserted, b.Explanation.Inserted)
	}
	if !slices.Equal(a.Explanation.CoreSrc, b.Explanation.CoreSrc) ||
		!slices.Equal(a.Explanation.CoreTgt, b.Explanation.CoreTgt) {
		t.Error("core alignments differ")
	}
	as, bs := a.Stats, b.Stats
	as.Duration, bs.Duration = 0, 0
	if as != bs {
		t.Errorf("stats differ: %+v vs %+v", as, bs)
	}
}
