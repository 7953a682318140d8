package search_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/metafunc"
	"affidavit/internal/search"
	"affidavit/internal/table"
)

// warmInstance builds a chain pair plus the warm tuple its predecessor pair
// learned.
func warmInstance(t *testing.T, permuteKeys bool) (*delta.Instance, delta.FuncTuple) {
	t.Helper()
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(17)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{
		Steps: 2, Eta: 0.1, Tau: 0.5, Seed: 17, PermuteKeys: permuteKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := delta.NewInstance(ch.Snapshots[0], ch.Snapshots[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Seed = 17
	res, err := search.Run(context.Background(), prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := delta.NewInstance(ch.Snapshots[1], ch.Snapshots[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst, res.Explanation.Funcs
}

func TestWarmStartValidation(t *testing.T) {
	inst, _ := warmInstance(t, false)
	opts := search.DefaultOptions()
	opts.Seed = 17
	opts.WarmStart = make([]metafunc.Func, inst.NumAttrs()+1)
	if _, err := search.Run(context.Background(), inst, opts); err == nil {
		t.Fatal("want error for wrong-length WarmStart")
	}
}

// TestWarmStartAllNilFallsBackCold: a warm tuple with no assignments means
// cold mode — identical results and stats.
func TestWarmStartAllNilFallsBackCold(t *testing.T) {
	inst, _ := warmInstance(t, false)
	opts := search.DefaultOptions()
	opts.Seed = 17
	cold, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.WarmStart = make([]metafunc.Func, inst.NumAttrs())
	warm, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, cold, warm)
}

// TestWarmStartDeterministic: warm runs reproduce exactly for equal seeds.
func TestWarmStartDeterministic(t *testing.T) {
	for _, permute := range []bool{false, true} {
		inst, funcs := warmInstance(t, permute)
		opts := search.DefaultOptions()
		opts.Seed = 17
		opts.WarmStart = funcs
		a, err := search.Run(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := search.Run(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, a, b)
		if err := a.Explanation.Validate(); err != nil {
			t.Fatalf("permute=%v: %v", permute, err)
		}
	}
}

// trivialRatioOf is a run's cost over its pair's trivial-explanation cost —
// what a session feeds the next run as WarmPrevRatio.
func trivialRatioOf(res *search.Result, inst *delta.Instance, alpha float64) float64 {
	cm := delta.CostModel{Alpha: alpha}
	return res.Cost / cm.TrivialCost(inst.NumAttrs(), inst.Target.Len())
}

// brokenChain builds the guard scenario on one dataset: a recurring chain
// (pairs share one transformation tuple) that breaks mid-chain when a
// snapshot from a structurally different chain over the same table is
// spliced in. Returns the previous pair's learned tuple and compression
// ratio, the recurring next pair, and the broken pair.
func brokenChain(t *testing.T) (warm delta.FuncTuple, prevRatio float64, recurring, broken *delta.Instance) {
	t.Helper()
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(17)
	if err != nil {
		t.Fatal(err)
	}
	chA, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 2, Eta: 0.1, Tau: 0.5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Same dataset, different seed: same schema, but different records and a
	// different sustained transformation tuple — splicing its snapshot into
	// chain A breaks the recurring structure.
	chB, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 1, Eta: 0.1, Tau: 0.5, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := delta.NewInstance(chA.Snapshots[0], chA.Snapshots[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Seed = 17
	res, err := search.Run(context.Background(), prev, opts)
	if err != nil {
		t.Fatal(err)
	}
	recurring, err = delta.NewInstance(chA.Snapshots[1], chA.Snapshots[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	broken, err = delta.NewInstance(chA.Snapshots[1], chB.Snapshots[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Explanation.Funcs, trivialRatioOf(res, prev, opts.Alpha), recurring, broken
}

// TestWarmGuardEscalatesOnBrokenChain: when the chain's structure breaks,
// the armed guard rejects the stale warm seed, sets Stats.WarmEscalated,
// and the escalated run is byte-identical to a cold run of the same seed.
func TestWarmGuardEscalatesOnBrokenChain(t *testing.T) {
	warm, prevRatio, _, broken := brokenChain(t)
	opts := search.DefaultOptions()
	opts.Seed = 17
	cold, err := search.Run(context.Background(), broken, opts)
	if err != nil {
		t.Fatal(err)
	}
	guarded := opts
	guarded.WarmStart = warm
	guarded.WarmGuard = 2
	guarded.WarmPrevRatio = prevRatio
	got, err := search.Run(context.Background(), broken, guarded)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.WarmEscalated {
		t.Fatal("guard did not escalate on a broken chain")
	}
	norm := *got
	norm.Stats.WarmEscalated = false
	assertSameResult(t, cold, &norm)
}

// TestWarmGuardKeepsRecurringWarmStart: on the chain's true next pair the
// armed guard leaves the warm seed alone — no escalation, and the run keeps
// the incremental speedup over the cold search.
func TestWarmGuardKeepsRecurringWarmStart(t *testing.T) {
	warm, prevRatio, recurring, _ := brokenChain(t)
	opts := search.DefaultOptions()
	opts.Seed = 17
	cold, err := search.Run(context.Background(), recurring, opts)
	if err != nil {
		t.Fatal(err)
	}
	guarded := opts
	guarded.WarmStart = warm
	guarded.WarmGuard = 2
	guarded.WarmPrevRatio = prevRatio
	got, err := search.Run(context.Background(), recurring, guarded)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.WarmEscalated {
		t.Fatal("guard escalated on a recurring pattern")
	}
	if got.Stats.Polls >= cold.Stats.Polls {
		t.Errorf("guarded warm run polled %d states, cold run %d — incremental speedup lost",
			got.Stats.Polls, cold.Stats.Polls)
	}
	if err := got.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmGuardValidation: negative guard parameters are rejected.
func TestWarmGuardValidation(t *testing.T) {
	inst, funcs := warmInstance(t, false)
	opts := search.DefaultOptions()
	opts.Seed = 17
	opts.WarmStart = funcs
	opts.WarmGuard = -1
	if _, err := search.Run(context.Background(), inst, opts); err == nil {
		t.Fatal("want error for negative WarmGuard")
	}
	opts.WarmGuard = 0
	opts.WarmPrevRatio = -0.1
	if _, err := search.Run(context.Background(), inst, opts); err == nil {
		t.Fatal("want error for negative WarmPrevRatio")
	}
}

// TestWarmStartPartialTuple: nil entries leave attributes undecided and the
// search completes them.
func TestWarmStartPartialTuple(t *testing.T) {
	inst, funcs := warmInstance(t, false)
	partial := make([]metafunc.Func, len(funcs))
	partial[0] = funcs[0]
	opts := search.DefaultOptions()
	opts.Seed = 17
	opts.WarmStart = partial
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.StartLevel != 1 {
		t.Errorf("start level %d, want 1 (one warm assignment)", res.Stats.StartLevel)
	}
}

// countingUpper is Uppercase that counts its applications per input value.
type countingUpper struct{ calls map[string]int }

func (f countingUpper) Apply(x string) string {
	f.calls[x]++
	return metafunc.Upper{}.Apply(x)
}
func (countingUpper) Params() int    { return 0 }
func (countingUpper) Key() string    { return "counting-upper" }
func (countingUpper) String() string { return "x ↦ Uppercase(x) (counted)" }

// TestWarmRunAppliesOnce: a warm run applies a carried function once per
// distinct source value for blocking and conversion together, plus once
// per distinct core source value for Validate, and interns nothing into
// the session pool.
func TestWarmRunAppliesOnce(t *testing.T) {
	schema := table.MustSchema("id", "unit", "org")
	units := []string{"usd", "eur", "gbp"}
	var src, tgt []table.Record
	for i := 0; i < 40; i++ {
		id, unit, org := fmt.Sprintf("r%02d", i), units[i%len(units)], []string{"acme", "globex"}[i%2]
		src = append(src, table.Record{id, unit, org})
		if i < 36 {
			tgt = append(tgt, table.Record{id, strings.ToUpper(unit), org})
		}
	}
	tgt = append(tgt, table.Record{"r99", "EUR", "acme"})
	pool := table.NewDictPool()
	inst, err := delta.NewInstanceWithDicts(table.MustFromRows(schema, src), table.MustFromRows(schema, tgt),
		nil, pool.DictsFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	inst.Coded()
	before := pool.Values()

	counted := countingUpper{calls: make(map[string]int)}
	opts := search.DefaultOptions()
	opts.Seed = 1
	opts.WarmStart = []metafunc.Func{metafunc.Identity{}, counted, metafunc.Identity{}}
	res, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	e := res.Explanation
	if e.Funcs[1].Key() != counted.Key() || e.CoreSize() != 36 {
		t.Fatalf("run did not convert the warm tuple: funcs %s, core %d", describeTuple(e.Funcs), e.CoreSize())
	}
	core := make(map[string]int)
	for _, s := range e.CoreSrc {
		core[inst.Source.Record(s)[1]] = 1
	}
	for _, u := range units {
		if got, limit := counted.calls[u], 1+core[u]; got == 0 || got > limit {
			t.Errorf("%q applied %d times, want 1..%d", u, got, limit)
		}
	}
	if len(counted.calls) != len(units) {
		t.Errorf("applied to %v, want only the source values %v", counted.calls, units)
	}
	if after := pool.Values(); after != before {
		t.Errorf("pool grew from %d to %d values during the run", before, after)
	}
}

// TestWarmPolicyPollsOnceWhenTupleReproducesRatio: when the complete warm
// tuple compresses this pair exactly as well as the previous one
// (WarmPrevRatio equals its cost over this pair's trivial cost), the run
// seeds only the tuple's state and returns it on the first poll — the
// explanation a run without a previous ratio finds after also expanding
// the no-mapping state. Any other ratio, one ulp off included, still polls
// the no-mapping state.
func TestWarmPolicyPollsOnceWhenTupleReproducesRatio(t *testing.T) {
	inst, funcs := warmInstance(t, false)
	opts := search.DefaultOptions()
	opts.Seed = 17
	opts.WarmStart = funcs
	base, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Explanation.Funcs.Key() != delta.FuncTuple(funcs).Key() {
		t.Fatalf("fixture: the warm tuple did not win:\n  %s\n  %s", base.Explanation.Funcs.Key(), delta.FuncTuple(funcs).Key())
	}
	if base.Stats.Polls < 2 {
		t.Fatalf("fixture: %d polls without a previous ratio; want the no-mapping state polled too", base.Stats.Polls)
	}
	ratio := trivialRatioOf(base, inst, opts.Alpha)

	opts.WarmPrevRatio = ratio
	got, err := search.Run(context.Background(), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Polls != 1 || got.Stats.StatesGenerated != 0 {
		t.Errorf("equal ratio: %d polls, %d states generated; want 1 and 0", got.Stats.Polls, got.Stats.StatesGenerated)
	}
	assertSameExplanation(t, base, got)

	for _, other := range []float64{math.Nextafter(ratio, 2), math.Nextafter(ratio, 0), ratio / 2} {
		opts.WarmPrevRatio = other
		got, err := search.Run(context.Background(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		gs, bs := got.Stats, base.Stats
		gs.Duration, bs.Duration = 0, 0
		if gs != bs {
			t.Errorf("ratio %v (this pair's is %v): stats %+v, want the unprimed run's %+v", other, ratio, gs, bs)
		}
		assertSameExplanation(t, base, got)
	}
}

// assertSameExplanation is assertSameResult without the search statistics.
func assertSameExplanation(t *testing.T, a, b *search.Result) {
	t.Helper()
	x, y := *a, *b
	x.Stats, y.Stats = search.Stats{}, search.Stats{}
	assertSameResult(t, &x, &y)
}
