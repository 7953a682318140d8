package search_test

import (
	"context"
	"testing"
	"time"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/obs"
	"affidavit/internal/search"
)

// cancelAtPoll returns ctx carrying a sink that calls cancel on poll
// event n — the deterministic way to interrupt a search mid-run.
func cancelAtPoll(ctx context.Context, cancel context.CancelFunc, n int) context.Context {
	return obs.ContextWithSink(ctx, func(ev obs.Event) {
		if ev.Kind == obs.KindPoll && ev.Poll == n {
			cancel()
		}
	})
}

// cancelInstance is a mid-sized problem the cancellation tests share.
func cancelInstance(t *testing.T) *delta.Instance {
	t.Helper()
	ds, err := datasets.Get("ncvoter-1k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(23)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return p.Inst
}

// TestCancelledBeforeRun: a context cancelled before Run starts returns the
// trivial explanation immediately, tagged Cancelled, with a nil error.
func TestCancelledBeforeRun(t *testing.T) {
	inst := cancelInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := search.DefaultOptions()
	opts.Seed = 23
	res, err := search.Run(ctx, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set")
	}
	if res.Stats.Polls != 0 {
		t.Errorf("polled %d states after pre-cancelled context", res.Stats.Polls)
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	cm := delta.CostModel{Alpha: opts.Alpha}
	if want := cm.Cost(delta.Trivial(inst)); res.Cost != want {
		t.Errorf("cost %v, want trivial %v", res.Cost, want)
	}
}

// TestCancelMidRunPrompt: cancelling after poll k stops the search within
// one further poll iteration — the run never reaches poll k+2 — and still
// returns a valid best-so-far explanation, the same one on every repeat.
func TestCancelMidRunPrompt(t *testing.T) {
	inst := cancelInstance(t)
	var first *search.Result
	for run := 0; run < 3; run++ {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		const after = 2
		opts := search.DefaultOptions()
		opts.Seed = 23
		res, err := search.Run(cancelAtPoll(ctx, cancel, after), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Cancelled {
			t.Fatalf("run %d: Stats.Cancelled not set", run)
		}
		if res.Stats.Polls > after+1 {
			t.Errorf("run %d: %d polls after cancelling at poll %d — not bounded by one poll",
				run, res.Stats.Polls, after)
		}
		if err := res.Explanation.Validate(); err != nil {
			t.Fatalf("run %d: salvaged explanation invalid: %v", run, err)
		}
		// The salvage path finalises the cheapest polled state, so the
		// function tuple must be complete.
		for a, f := range res.Explanation.Funcs {
			if f == nil {
				t.Fatalf("run %d: attribute %d undecided in salvaged tuple", run, a)
			}
		}
		if first == nil {
			first = res
		} else {
			assertSameResult(t, first, res)
		}
	}
}

// TestCancelSalvagesWork: a run cancelled mid-climb keeps its partial
// assignment — the salvaged explanation is finalised from the cheapest
// polled state and never costs more than the trivial fallback.
func TestCancelSalvagesWork(t *testing.T) {
	inst := cancelInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := search.DefaultOptions()
	opts.Seed = 23
	res, err := search.Run(cancelAtPoll(ctx, cancel, 6), inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Cancelled {
		t.Fatal("Stats.Cancelled not set")
	}
	cm := delta.CostModel{Alpha: opts.Alpha}
	if trivial := cm.Cost(delta.Trivial(inst)); res.Cost > trivial {
		t.Errorf("salvaged cost %v worse than trivial %v", res.Cost, trivial)
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredDeadline: an already-expired deadline behaves like a
// pre-cancelled context — prompt return, Cancelled set, nil error.
func TestExpiredDeadline(t *testing.T) {
	inst := cancelInstance(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts := search.DefaultOptions()
	opts.Seed = 23
	res, err := search.Run(ctx, inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Cancelled {
		t.Error("Stats.Cancelled not set for expired deadline")
	}
}

// TestUncancelledContextByteIdentical asserts the refactor's no-regression
// guarantee across every registry dataset: a run under a live (never
// cancelled) context — plain Background, cancellable, or under a generous
// deadline — is byte-identical to every other and reports Cancelled=false.
func TestUncancelledContextByteIdentical(t *testing.T) {
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tab, err := spec.BuildRows(testRows(spec), 7)
			if err != nil {
				t.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			opts := search.DefaultOptions()
			opts.Seed = 7

			base, err := search.Run(context.Background(), p.Inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if base.Stats.Cancelled {
				t.Fatal("uncancelled run reported Cancelled")
			}

			cctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			dctx, dcancel := context.WithTimeout(context.Background(), time.Hour)
			defer dcancel()
			for name, ctx := range map[string]context.Context{
				"cancellable": cctx,
				"deadline":    dctx,
			} {
				got, err := search.Run(ctx, p.Inst, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameResult(t, base, got)
			}
		})
	}
}
