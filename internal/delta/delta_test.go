package delta_test

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

func TestNewInstanceSchemaMismatch(t *testing.T) {
	a := table.MustFromRows(table.MustSchema("x"), nil)
	b := table.MustFromRows(table.MustSchema("y"), nil)
	if _, err := delta.NewInstance(a, b, nil); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestInstanceBasics(t *testing.T) {
	inst := fixture.Instance()
	if inst.NumAttrs() != 7 {
		t.Errorf("NumAttrs = %d, want 7", inst.NumAttrs())
	}
	if inst.Delta() != 1 {
		t.Errorf("Delta = %d, want |S|-|T| = 17-16 = 1", inst.Delta())
	}
}

func TestIdentityTuple(t *testing.T) {
	ft := delta.IdentityTuple(3)
	if len(ft) != 3 || ft.Params() != 0 {
		t.Error("identity tuple wrong")
	}
	r := table.Record{"a", "b", "c"}
	if !ft.Apply(r).Equal(r) {
		t.Error("identity tuple changed record")
	}
}

func TestFuncTupleKeyAndClone(t *testing.T) {
	ft := delta.FuncTuple{metafunc.Identity{}, metafunc.Constant{C: "x"}}
	ft2 := ft.Clone()
	if ft.Key() != ft2.Key() {
		t.Error("clone key differs")
	}
	ft2[0] = metafunc.Upper{}
	if ft.Key() == ft2.Key() {
		t.Error("mutating clone affected original key")
	}
}

// TestRunningExampleE1 replays the cost arithmetic of Section 3.1 on the
// paper's explanation E1.
func TestRunningExampleE1(t *testing.T) {
	e := fixture.ReferenceExplanation()
	if err := e.Validate(); err != nil {
		t.Fatalf("E1 invalid: %v", err)
	}
	if e.CoreSize() != 13 {
		t.Errorf("core size = %d, want 13", e.CoreSize())
	}
	inst := e.Inst
	var deleted []string
	for _, s := range e.Deleted {
		deleted = append(deleted, inst.Source.Value(s, fixture.ID1))
	}
	wantDel := fixture.DeletedIDs()
	if len(deleted) != len(wantDel) {
		t.Fatalf("deleted = %v, want %v", deleted, wantDel)
	}
	delSet := map[string]bool{}
	for _, d := range deleted {
		delSet[d] = true
	}
	for _, w := range wantDel {
		if !delSet[w] {
			t.Errorf("record %s should be deleted; got %v", w, deleted)
		}
	}
	var inserted []string
	for _, ti := range e.Inserted {
		inserted = append(inserted, inst.Target.Value(ti, fixture.ID1))
	}
	insSet := map[string]bool{}
	for _, i := range inserted {
		insSet[i] = true
	}
	for _, w := range fixture.InsertedIDs() {
		if !insSet[w] {
			t.Errorf("record %s should be inserted; got %v", w, inserted)
		}
	}
	if got := e.InsertionLength(); got != 21 {
		t.Errorf("L(T+) = %d, want 7·3 = 21", got)
	}
	if got := e.FunctionLength(); got != 56 {
		t.Errorf("L(F) = %d, want 56", got)
	}
	if got := delta.DefaultCosts.Cost(e); got != fixture.ReferenceCost {
		t.Errorf("c(E1) = %v, want %d", got, fixture.ReferenceCost)
	}
}

// TestFigure1SampleApplication replays the worked transformation of the
// first source record: F^{E1}(S01 …) = (T07, 0006, 20130416, A, 80, k $, IBM).
func TestFigure1SampleApplication(t *testing.T) {
	ft := fixture.ReferenceFuncs()
	got := ft.Apply(table.Record{"S01", "0000", "20130416", "A", "80000", "USD", "IBM"})
	want := table.Record{"T07", "0006", "20130416", "A", "80", "k $", "IBM"}
	if !got.Equal(want) {
		t.Errorf("F(S01) = %v, want %v", got, want)
	}
}

func TestTrivialExplanation(t *testing.T) {
	inst := fixture.Instance()
	e := delta.Trivial(inst)
	if err := e.Validate(); err != nil {
		t.Fatalf("trivial explanation invalid: %v", err)
	}
	if e.CoreSize() != 0 || len(e.Deleted) != 17 || len(e.Inserted) != 16 {
		t.Error("trivial explanation shape wrong")
	}
	if got := delta.DefaultCosts.Cost(e); got != fixture.TrivialCost {
		t.Errorf("c(E∅) = %v, want %d", got, fixture.TrivialCost)
	}
}

func TestBuildRejectsWrongWidth(t *testing.T) {
	inst := fixture.Instance()
	if _, err := delta.Build(inst, delta.IdentityTuple(3)); err == nil {
		t.Error("wrong-width tuple accepted")
	}
}

func TestBuildBijectionOnDuplicates(t *testing.T) {
	// Two identical sources, one matching target: only one may claim it.
	s := table.MustSchema("v")
	src := table.MustFromRows(s, []table.Record{{"a"}, {"a"}})
	tgt := table.MustFromRows(s, []table.Record{{"a"}})
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := delta.Build(inst, delta.IdentityTuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.CoreSize() != 1 || len(e.Deleted) != 1 || len(e.Inserted) != 0 {
		t.Errorf("duplicate handling wrong: core=%d del=%d ins=%d",
			e.CoreSize(), len(e.Deleted), len(e.Inserted))
	}
	// And symmetric: one source, two identical targets.
	inst2, _ := delta.NewInstance(tgt, src, nil)
	e2, _ := delta.Build(inst2, delta.IdentityTuple(1))
	if e2.CoreSize() != 1 || len(e2.Inserted) != 1 {
		t.Error("duplicate targets handled wrong")
	}
	// Equal targets apart in arrival order share one chain: sources claim
	// them in arrival order, and all three records join the core.
	inst3, err := delta.NewInstance(
		table.MustFromRows(s, []table.Record{{"a"}, {"b"}, {"a"}}),
		table.MustFromRows(s, []table.Record{{"a"}, {"a"}, {"b"}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := delta.Build(inst3, delta.IdentityTuple(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Validate(); err != nil {
		t.Fatal(err)
	}
	if e3.CoreSize() != 3 {
		t.Fatalf("interleaved duplicates: core = %d, want 3", e3.CoreSize())
	}
	claims := map[int]int{}
	for i, src := range e3.CoreSrc {
		claims[src] = e3.CoreTgt[i]
	}
	if want := map[int]int{0: 0, 1: 2, 2: 1}; !reflect.DeepEqual(claims, want) {
		t.Errorf("interleaved duplicates: source→target claims %v, want %v", claims, want)
	}
}

func TestAlphaWeighting(t *testing.T) {
	e := fixture.ReferenceExplanation()
	// α = 1: only insertions count, doubled.
	if got := (delta.CostModel{Alpha: 1}).Cost(e); got != 42 {
		t.Errorf("α=1 cost = %v, want 2·21", got)
	}
	// α = 0: only functions count, doubled.
	if got := (delta.CostModel{Alpha: 0}).Cost(e); got != 112 {
		t.Errorf("α=0 cost = %v, want 2·56", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	// rejects fails unless Validate rejects e, and fails if Validate
	// interned anything.
	rejects := func(name string, e *delta.Explanation) {
		t.Helper()
		dicts := e.Inst.Coded().Dicts
		lens := make([]int, len(dicts))
		for a, d := range dicts {
			lens[a] = d.Len()
		}
		if err := e.Validate(); err == nil {
			t.Errorf("%s passed validation", name)
		}
		for a, d := range dicts {
			if d.Len() != lens[a] {
				t.Errorf("%s: Validate grew dictionary %d from %d to %d values", name, a, lens[a], d.Len())
			}
		}
	}
	e := fixture.ReferenceExplanation()
	e.CoreTgt[0], e.CoreTgt[1] = e.CoreTgt[1], e.CoreTgt[0]
	rejects("swapped alignment", e)
	e2 := fixture.ReferenceExplanation()
	e2.Deleted = append(e2.Deleted, e2.CoreSrc[0])
	rejects("double-counted source", e2)
	e3 := fixture.ReferenceExplanation()
	e3.Inserted = e3.Inserted[:len(e3.Inserted)-1]
	rejects("missing insertion", e3)
	e4 := fixture.ReferenceExplanation()
	e4.CoreTgt = e4.CoreTgt[:len(e4.CoreTgt)-1]
	rejects("ragged core", e4)

	// one is a one-attribute explanation under f that aligns src[i] with
	// tgt[i] for i < n and deletes and inserts the rest.
	one := func(src, tgt []string, f metafunc.Func, n int) *delta.Explanation {
		s := table.MustSchema("a")
		var sr, tr []table.Record
		for _, v := range src {
			sr = append(sr, table.Record{v})
		}
		for _, v := range tgt {
			tr = append(tr, table.Record{v})
		}
		inst, err := delta.NewInstance(table.MustFromRows(s, sr), table.MustFromRows(s, tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		e := &delta.Explanation{Inst: inst, Funcs: delta.FuncTuple{f}}
		for i := range src {
			if i < n {
				e.CoreSrc = append(e.CoreSrc, i)
				e.CoreTgt = append(e.CoreTgt, i)
			} else {
				e.Deleted = append(e.Deleted, i)
			}
		}
		for i := n; i < len(tgt); i++ {
			e.Inserted = append(e.Inserted, i)
		}
		return e
	}
	// The second pair shares the first's source value, so its target is
	// checked against the code the first pair left, not by applying f.
	shared := func(n int) *delta.Explanation {
		return one([]string{"x", "x"}, []string{"X", "Y"}, metafunc.Upper{}, n)
	}
	if err := shared(1).Validate(); err != nil {
		t.Fatalf("the first pair alone: %v", err)
	}
	rejects("shared source value, different targets", shared(2))
	rejects("identity mismatch", one([]string{"a"}, []string{"b"}, metafunc.Identity{}, 1))
	rejects("image absent from the dictionary", one([]string{"x"}, []string{"y"}, metafunc.Upper{}, 1))
}

// Property: Build always yields a valid explanation, whatever tuple we
// hand it (here: random constant/identity mixes over a small instance).
func TestQuickBuildAlwaysValid(t *testing.T) {
	s := table.MustSchema("a", "b")
	f := func(vals [4]string, useConst bool) bool {
		src := table.MustFromRows(s, []table.Record{{vals[0], vals[1]}})
		tgt := table.MustFromRows(s, []table.Record{{vals[2], vals[3]}})
		inst, err := delta.NewInstance(src, tgt, nil)
		if err != nil {
			return false
		}
		ft := delta.IdentityTuple(2)
		if useConst {
			ft[0] = metafunc.Constant{C: vals[2]}
		}
		e, err := delta.Build(inst, ft)
		if err != nil {
			return false
		}
		return e.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: cost is monotone in the number of insertions for fixed funcs.
func TestQuickCostMonotoneInInsertions(t *testing.T) {
	inst := fixture.Instance()
	ref := fixture.ReferenceExplanation()
	triv := delta.Trivial(inst)
	if delta.DefaultCosts.Cost(ref) >= delta.DefaultCosts.Cost(triv) {
		t.Error("reference explanation should beat trivial")
	}
}

// TestNewInstanceWithDicts: pre-seeded dictionaries put the coded view in
// the pool's code space without changing which records group together.
func TestNewInstanceWithDicts(t *testing.T) {
	inst := fixture.Instance()
	pool := table.NewDictPool()
	dicts := pool.DictsFor(inst.Schema())
	// Pre-pollute the pool so pooled codes differ from fresh ones.
	for _, d := range dicts {
		d.Code("previously-interned")
	}
	pooled, err := delta.NewInstanceWithDicts(inst.Source, inst.Target, inst.Metas, dicts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := inst.Coded()
	co := pooled.Coded()
	for a := range co.Dicts {
		if co.Dicts[a] != dicts[a] {
			t.Fatalf("attr %d: coded view not using the pooled dict", a)
		}
		if co.Base[a] <= fresh.Base[a] {
			t.Errorf("attr %d: pooled base %d not above fresh base %d", a, co.Base[a], fresh.Base[a])
		}
		// Same strings behind the codes, record by record.
		for i, c := range co.Src[a] {
			if co.Dicts[a].Value(c) != fresh.Dicts[a].Value(fresh.Src[a][i]) {
				t.Fatalf("attr %d source record %d: value mismatch", a, i)
			}
		}
	}
	// The same pair streamed over one shared dictionary set is interned
	// once, and codes exactly like the translated FromRows pair.
	shared := table.NewDictPool().DictsFor(inst.Schema())
	stream := func(tab *table.Table) *table.Table {
		b, err := table.NewBuilder(tab.Schema(), shared)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tab.Len(); i++ {
			if err := b.Append(tab.Record(i)); err != nil {
				t.Fatal(err)
			}
		}
		return b.Table()
	}
	streamed, err := delta.NewInstanceWithDicts(stream(inst.Source), stream(inst.Target), inst.Metas, shared)
	if err != nil {
		t.Fatal(err)
	}
	if sc := streamed.Coded(); fmt.Sprint(sc.Base, sc.SrcPresent) != fmt.Sprint(fresh.Base, fresh.SrcPresent) {
		t.Errorf("streamed pair codes differently from the FromRows pair:\n%v %v\n%v %v", sc.Base, sc.SrcPresent, fresh.Base, fresh.SrcPresent)
	}
	// Explanations built over the pooled view equal fresh ones.
	ft := delta.IdentityTuple(pooled.NumAttrs())
	a, err := delta.Build(pooled, ft)
	if err != nil {
		t.Fatal(err)
	}
	b, err := delta.Build(inst, ft)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.CoreSrc) != fmt.Sprint(b.CoreSrc) ||
		fmt.Sprint(a.Deleted) != fmt.Sprint(b.Deleted) ||
		fmt.Sprint(a.Inserted) != fmt.Sprint(b.Inserted) {
		t.Error("pooled Build differs from fresh Build")
	}
}

// TestNewInstanceWithDictsValidation: the dict set must match the schema.
func TestNewInstanceWithDictsValidation(t *testing.T) {
	inst := fixture.Instance()
	if _, err := delta.NewInstanceWithDicts(inst.Source, inst.Target, nil,
		[]*table.Dict{table.NewDict()}); err == nil {
		t.Fatal("want error for wrong dict count")
	}
	dicts := make([]*table.Dict, inst.NumAttrs())
	if _, err := delta.NewInstanceWithDicts(inst.Source, inst.Target, nil, dicts); err == nil {
		t.Fatal("want error for nil dict entry")
	}
}

// TestCodeSpaceDuringIngest checks the code-space invariant the search's
// readers rely on (docs/architecture.md, "A code ≥ Base is never a
// snapshot value") while a third table interns into the same pool: every
// snapshot code lies below Base, and every apply-memo code at or above
// Base — interned by the memo or, for the same string, by the concurrent
// ingest — decodes to a value neither snapshot holds. CI runs it under
// -race.
func TestCodeSpaceDuringIngest(t *testing.T) {
	s := table.MustSchema("id", "name")
	dicts := table.NewDictPool().DictsFor(s)
	build := func(prefix string, n int) *table.Table {
		b, err := table.NewBuilder(s, dicts)
		if err != nil {
			t.Error(err)
			return nil
		}
		for i := 0; i < n; i++ {
			if err := b.Append(table.Record{fmt.Sprint(i % 40), fmt.Sprintf("%s%d", prefix, i%9)}); err != nil {
				t.Error(err)
			}
		}
		return b.Table()
	}
	// The target shares some names with the source; the memo's outputs
	// ("p-v0", …) are in neither.
	inst, err := delta.NewInstanceWithDicts(build("v", 30), build("v", 20), nil, dicts)
	if err != nil {
		t.Fatal(err)
	}
	co := inst.Coded()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The third table's names include the memo's own outputs, so the
		// ingest and the memos race to intern the same strings.
		for round := 0; round < 30; round++ {
			build(fmt.Sprintf("p-v%d-", round), 60)
			build("p-v", 60)
		}
	}()
	f := metafunc.Prefix{Y: "p-"}
	var memos [][][]int32
	for rep := 0; rep < 30; rep++ {
		memo := make([][]int32, len(co.Dicts))
		for a := range co.Dicts {
			memo[a] = co.ApplyMemo(a, f)
		}
		memos = append(memos, memo)
	}
	<-done
	for a, d := range co.Dicts {
		inSnapshot := make(map[string]bool)
		for _, col := range [][]int32{co.Src[a], co.Tgt[a]} {
			for i, c := range col {
				if c >= co.Base[a] {
					t.Fatalf("attr %d record %d: snapshot code %d ≥ Base %d", a, i, c, co.Base[a])
				}
				inSnapshot[d.Value(c)] = true
			}
		}
		for rep, memo := range memos {
			for _, c := range co.SrcPresent[a] {
				m := memo[a][c]
				if m < co.Base[a] {
					continue
				}
				if v := d.Value(m); inSnapshot[v] || v != f.Apply(d.Value(c)) {
					t.Fatalf("memo %d attr %d: code %d ≥ Base decodes to %q for input %q", rep, a, m, v, d.Value(c))
				}
			}
		}
	}
}
