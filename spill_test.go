package affidavit_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// spillRows caps dataset sizes so the full-registry sweep stays fast under
// the race detector while still spilling at the test budget.
func spillRows(spec datasets.Spec) int {
	rows := spec.Rows
	if rows > 600 {
		rows = 600
	}
	if spec.DataAttrs > 40 && rows > 150 {
		rows = 150
	}
	return rows
}

// spillTestBudget is small enough that every dataset's end-state matching
// keeps its partitions' member lists on disk.
const spillTestBudget = 8 << 10

// explanationBytes encodes everything seed-determined about a result —
// explanation, SQL, costs — while zeroing the stats, whose spill counters
// legitimately differ between budgeted and unbudgeted runs.
func explanationBytes(t *testing.T, res *affidavit.Result) []byte {
	t.Helper()
	jr := res.JSONResult("spill_equivalence")
	jr.Stats = affidavit.JSONStats{}
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// spillComponents is a concurrency-safe recorder of EventSpill components.
type spillComponents struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (c *spillComponents) Observe(ev affidavit.Event) {
	if ev.Kind != affidavit.EventSpill {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen == nil {
		c.seen = make(map[string]bool)
	}
	c.seen[ev.Component] = true
}

// TestSpillEquivalence is the out-of-core acceptance check: on every
// registry dataset, an artificially tiny memory budget forces spilling in
// delta.Build's multiset matching (and in the overlap index where the
// start strategy builds one), and the resulting explanation bytes equal the
// unbudgeted run's — for the sequential and the parallel engine.
func TestSpillEquivalence(t *testing.T) {
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tab, err := spec.BuildRows(spillRows(spec), 7)
			if err != nil {
				t.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				plain, err := affidavit.New(affidavit.WithSeed(3), affidavit.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				comps := &spillComponents{}
				budgeted, err := affidavit.New(
					affidavit.WithSeed(3),
					affidavit.WithWorkers(workers),
					affidavit.WithMemBudget(spillTestBudget),
					affidavit.WithObserver(comps),
				)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
				if err != nil {
					t.Fatal(err)
				}
				got, err := budgeted.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
				if err != nil {
					t.Fatal(err)
				}
				if want.Stats.SpilledBytes != 0 {
					t.Fatalf("workers=%d: unbudgeted run reports spilling", workers)
				}
				if got.Stats.SpilledBytes == 0 || got.Stats.SpillPartitions == 0 {
					t.Fatalf("workers=%d: budgeted run did not spill (bytes=%d parts=%d)",
						workers, got.Stats.SpilledBytes, got.Stats.SpillPartitions)
				}
				if !comps.seen["convert"] {
					t.Fatalf("workers=%d: spill components %v, want convert", workers, comps.seen)
				}
				wb, gb := explanationBytes(t, want), explanationBytes(t, got)
				if string(wb) != string(gb) {
					t.Errorf("workers=%d: budgeted explanation differs from in-memory one\nwant %s\ngot  %s",
						workers, wb, gb)
				}
			}
		})
	}
}

// TestSpillSlabInteraction pins the spill × pooled-slab boundary: every
// run counts surpluses through process-global pooled scratch (blocking's
// countPool, induce's pools), budgeted or not. Interleaving budgeted and
// unbudgeted explains in one process hands each mode slabs the other mode
// dirtied — if any pooled state survived a run, the explanation bytes would
// drift from the reference. Runs on a shape-diverse registry subset, both
// engines; the full-registry single-pass sweep is TestSpillEquivalence.
func TestSpillSlabInteraction(t *testing.T) {
	for _, name := range []string{"bridges", "ncvoter-1k", "horse", "flight-1k"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := datasets.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := spec.BuildRows(spillRows(spec), 17)
			if err != nil {
				t.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				explain := func(budget int64) *affidavit.Result {
					opts := []affidavit.Option{affidavit.WithSeed(9), affidavit.WithWorkers(workers)}
					if budget > 0 {
						opts = append(opts, affidavit.WithMemBudget(budget))
					}
					ex, err := affidavit.New(opts...)
					if err != nil {
						t.Fatal(err)
					}
					res, err := ex.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				ref := explanationBytes(t, explain(0))
				// Alternate modes twice so each run inherits scratch the
				// opposite mode left in the pools.
				for round, budget := range []int64{spillTestBudget, 0, spillTestBudget, 0} {
					res := explain(budget)
					if budget > 0 && res.Stats.SpilledBytes == 0 {
						t.Fatalf("workers=%d round %d: budgeted run did not spill", workers, round)
					}
					if got := explanationBytes(t, res); string(got) != string(ref) {
						t.Errorf("workers=%d round %d (budget=%d): explanation drifted from reference\nwant %s\ngot  %s",
							workers, round, budget, ref, got)
					}
				}
			}
		})
	}
}

// eventRecorder captures a full event stream (unlike spillComponents,
// which only records components).
type eventRecorder struct {
	mu     sync.Mutex
	events []affidavit.Event
}

func (r *eventRecorder) Observe(ev affidavit.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// TestSpillEventDeterminism: under a budget the event stream — spill
// events included — is identical across repeated runs and across worker
// counts: spill totals aggregate per run and emit from the polling
// goroutine, so the determinism contract survives going out of core.
func TestSpillEventDeterminism(t *testing.T) {
	spec, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []affidavit.Event {
		rec := &eventRecorder{}
		ex, err := affidavit.New(
			affidavit.WithSeed(11),
			affidavit.WithWorkers(workers),
			affidavit.WithMemBudget(spillTestBudget),
			affidavit.WithObserver(rec),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Explain(context.Background(), p.Inst.Source, p.Inst.Target); err != nil {
			t.Fatal(err)
		}
		return rec.events
	}
	want := run(1)
	spills := 0
	for _, ev := range want {
		if ev.Kind == affidavit.EventSpill {
			spills++
		}
	}
	if spills == 0 {
		t.Fatal("budgeted stream has no spill events")
	}
	for _, workers := range []int{1, 4} {
		got := run(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d events vs %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: event %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestSpillEquivalenceStreamedIngest: ingest is not a spill stage. Under a
// tiny budget a streamed pair stays resident — only the conversion spills —
// and the explanation matches the unbudgeted streamed run.
func TestSpillEquivalenceStreamedIngest(t *testing.T) {
	spec, err := datasets.Get("flight-500k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.BuildRows(4000, 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pair := func(ex *affidavit.Explainer) (*affidavit.Result, error) {
		return ex.ExplainSources(context.Background(),
			affidavit.TableSource(p.Inst.Source), affidavit.TableSource(p.Inst.Target))
	}
	plain, err := affidavit.New(affidavit.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	comps := &spillComponents{}
	budgeted, err := affidavit.New(affidavit.WithSeed(3),
		affidavit.WithMemBudget(16<<10), affidavit.WithObserver(comps))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pair(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pair(budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if comps.seen["ingest"] || !comps.seen["convert"] {
		t.Fatalf("spill components %v, want convert and no ingest", comps.seen)
	}
	if got.Stats.SpilledBytes == 0 {
		t.Fatal("streamed budgeted run's Stats does not include the conversion's spill")
	}
	wb, gb := explanationBytes(t, want), explanationBytes(t, got)
	if string(wb) != string(gb) {
		t.Errorf("budgeted streamed explanation differs from unbudgeted one")
	}
}
