// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), plus ablations over the search parameters ϱ, β, θ and the
// start state.
//
// The headline experiments:
//
//	BenchmarkFigure1RunningExample — the worked example I1 (cost 77 vs 112)
//	BenchmarkFigure2SATReduction   — the NP-hardness construction end to end
//	BenchmarkFigure3Blocking       — blocking refinement (Definition 4.3/4.4)
//	BenchmarkFigure4SearchTree     — the traced β=2, ϱ=3 search of Figure 4
//	BenchmarkTable1Induction       — one-example induction over the function library
//	BenchmarkTable2/...            — dataset × configuration quality grid
//	BenchmarkFigure5Rows/...       — row scalability on flight-500k (scaled)
//	BenchmarkFigure6Attrs/...      — attribute scalability
//	BenchmarkChain*                — snapshot-chain sessions: warm vs cold, pooled interning
//	BenchmarkAblation*             — queue width ϱ, branching β, start states, θ
//	BenchmarkTraceOverhead         — per-run tracing cost, on vs off
//
// Large datasets run at reduced row counts so the suite stays benchable;
// the table2, rowscale and attrscale subcommands of cmd/affidavit
// regenerate the full-size artifacts.
package affidavit_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"affidavit"
	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/gen"
	"affidavit/internal/metafunc"
	"affidavit/internal/obs"
	"affidavit/internal/satreduce"
	"affidavit/internal/search"
	"affidavit/internal/table"
)

func BenchmarkFigure1RunningExample(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts search.Options
	}{
		{"Hid", search.DefaultOptions()},
		{"Hs", search.OverlapOptions()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			inst := fixture.Instance()
			opts := cfg.opts
			opts.Seed = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := search.Run(context.Background(), inst, opts)
				if err != nil {
					b.Fatal(err)
				}
				if res.Cost > fixture.TrivialCost {
					b.Fatalf("cost %v above trivial", res.Cost)
				}
			}
		})
	}
}

func BenchmarkFigure2SATReduction(b *testing.B) {
	c := satreduce.Example()
	for i := 0; i < b.N; i++ {
		sol, err := satreduce.Solve(c, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if !sol.Satisfiable {
			b.Fatal("example must be satisfiable")
		}
	}
}

func BenchmarkFigure3Blocking(b *testing.B) {
	inst := fixture.Instance()
	for i := 0; i < b.N; i++ {
		r := blocking.New(inst).
			Refine(fixture.Type, metafunc.Identity{}).
			Refine(fixture.Unit, metafunc.Constant{C: "k $"}).
			Refine(fixture.Org, metafunc.Identity{})
		if r.NumMixed() == 0 {
			b.Fatal("no mixed blocks")
		}
	}
}

func BenchmarkFigure4SearchTree(b *testing.B) {
	inst := fixture.Instance()
	opts := search.DefaultOptions()
	opts.Beta = 2
	opts.QueueWidth = 3
	opts.Seed = 1
	for i := 0; i < b.N; i++ {
		polls := 0
		ctx := affidavit.ContextWithObserver(context.Background(), observerFunc(func(ev obs.Event) {
			if ev.Kind == obs.KindPoll {
				polls++
			}
		}))
		if _, err := search.Run(ctx, inst, opts); err != nil {
			b.Fatal(err)
		}
		if polls == 0 {
			b.Fatal("no poll events")
		}
	}
}

func BenchmarkTable1Induction(b *testing.B) {
	metas := metafunc.DefaultMetas()
	examples := [][2]string{
		{"80000", "80"}, {"sap", "SAP"}, {"USD", "k $"}, {"6540", "9.8"},
		{"99991231", "20180701"}, {"00042", "42"}, {"42", "ID-42"},
		{"100 USD", "100 EUR"}, {"same", "same"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range examples {
			metafunc.InduceAll(metas, ex[0], ex[1])
		}
	}
}

// benchRows caps dataset sizes for the Table 2 benchmark grid.
func benchRows(name string, rows int) int {
	if rows > 5000 {
		return 5000
	}
	return rows
}

func BenchmarkTable2(b *testing.B) {
	setting := gen.Setting{Eta: 0.3, Tau: 0.3}
	for _, spec := range datasets.All() {
		if spec.Name == "flight-500k" {
			continue // Figure 5's dataset
		}
		for _, cfg := range []struct {
			name string
			opts search.Options
		}{
			{"Hs", search.OverlapOptions()},
			{"Hid", search.DefaultOptions()},
		} {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, cfg.name), func(b *testing.B) {
				tab, err := spec.BuildRows(benchRows(spec.Name, spec.Rows), 13)
				if err != nil {
					b.Fatal(err)
				}
				p, err := gen.Generate(tab, gen.Config{Setting: setting, Seed: 13})
				if err != nil {
					b.Fatal(err)
				}
				opts := cfg.opts
				opts.Seed = 13
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFigure5Rows(b *testing.B) {
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		b.Fatal(err)
	}
	const baseRows = 20000 // paper: 500000; affidavit rowscale runs full size
	tab, err := ds.BuildRows(baseRows, 38)
	if err != nil {
		b.Fatal(err)
	}
	base, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int{20, 40, 60, 80, 100} {
		p := base
		if pct < 100 {
			var err error
			p, err = base.Scale(float64(pct)/100, int64(pct))
			if err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("scale%d", pct), func(b *testing.B) {
			opts := search.DefaultOptions()
			opts.Seed = 1
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure6Attrs(b *testing.B) {
	rows := map[string]int{"fd-red-30": 2000, "plista": 1000, "flight-1k": 1000, "uniprot": 1000}
	for _, name := range []string{"fd-red-30", "plista", "flight-1k", "uniprot"} {
		b.Run(name, func(b *testing.B) {
			ds, err := datasets.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			tab, err := ds.BuildRows(rows[name], 21)
			if err != nil {
				b.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 21})
			if err != nil {
				b.Fatal(err)
			}
			opts := search.DefaultOptions()
			opts.Seed = 21
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// chainProblem builds the k-step snapshot chain shared by the chain
// benches.
func chainProblem(b *testing.B, steps int) *gen.ChainProblem {
	b.Helper()
	ds, err := datasets.Get("ncvoter-1k")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := ds.Build(41)
	if err != nil {
		b.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: steps, Eta: 0.1, Tau: 0.5, Seed: 41})
	if err != nil {
		b.Fatal(err)
	}
	return ch
}

// stationaryChain builds the service benchmark's warm_chain shape: a
// flight-500k chain (chain seed 3, η 0.1, τ 0.5, stable keys) whose
// 4 000-row snapshots come from a 20 000-row slice, 40 steps long. Its
// carried tuple compresses every step exactly as well as the one before.
func stationaryChain(tb testing.TB) *gen.ChainProblem {
	tb.Helper()
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := ds.BuildRows(20000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 40, Eta: 0.1, Tau: 0.5, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// stationarySteps is how many steps of the stationary chain a benchmark
// iteration explains warm, after an untimed cold first step.
const stationarySteps = 8

// BenchmarkChain measures the session subsystem on a 4-step snapshot
// chain: "cold" explains every consecutive pair independently, "warm"
// drives one session through the chain (shared dictionary pool plus
// warm-started search). The warm/cold ratio is the chain-mode payoff.
// "stationary" times stationarySteps warm steps of stationaryChain, each
// of which polls only its carried tuple's state.
func BenchmarkChain(b *testing.B) {
	const steps = 4
	ch := chainProblem(b, steps)
	opts := search.DefaultOptions()
	opts.Seed = 41
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 1; s < len(ch.Snapshots); s++ {
				inst, err := delta.NewInstance(ch.Snapshots[s-1], ch.Snapshots[s], nil)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := search.Run(context.Background(), inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		ex, err := affidavit.New(affidavit.WithSeed(opts.Seed))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sess := ex.Session(ch.Snapshots[0])
			for s := 1; s < len(ch.Snapshots); s++ {
				if _, err := sess.ExplainNextContext(context.Background(), ch.Snapshots[s]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("stationary", func(b *testing.B) {
		sc := stationaryChain(b)
		ex, err := affidavit.New(affidavit.WithSeed(opts.Seed))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sess := ex.Session(sc.Snapshots[0])
			if _, err := sess.ExplainNextContext(context.Background(), sc.Snapshots[1]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for s := 2; s <= 1+stationarySteps; s++ {
				if _, err := sess.ExplainNextContext(context.Background(), sc.Snapshots[s]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkChainInterning isolates the dictionary-pool effect: interning
// every consecutive pair of the chain into fresh per-pair dictionaries
// versus one shared pool that keeps codes across pairs.
func BenchmarkChainInterning(b *testing.B) {
	const steps = 4
	ch := chainProblem(b, steps)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 1; s < len(ch.Snapshots); s++ {
				inst, err := delta.NewInstance(ch.Snapshots[s-1], ch.Snapshots[s], nil)
				if err != nil {
					b.Fatal(err)
				}
				inst.Coded()
			}
		}
	})
	b.Run("shared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := table.NewDictPool()
			for s := 1; s < len(ch.Snapshots); s++ {
				inst, err := delta.NewInstanceWithDicts(ch.Snapshots[s-1], ch.Snapshots[s], nil,
					pool.DictsFor(ch.Snapshots[s-1].Schema()))
				if err != nil {
					b.Fatal(err)
				}
				inst.Coded()
			}
		}
	})
}

// figure5Pair is the Figure 5 instance (40 000 rows) with its reference
// function tuple, interned outside the timer.
func figure5Pair(b *testing.B) *gen.Problem {
	b.Helper()
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := ds.BuildRows(40000, 5)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	p.Inst.Coded()
	return p
}

// BenchmarkBuild measures the standalone end-state conversion —
// delta.BuildCtx's apply memos (Coded.ApplyMemo), greedy multiset matching
// and assembly — on the Figure 5 pair. A search skips the memo step: it
// hands its refinement tree's memos to delta.BuildWithMemos.
func BenchmarkBuild(b *testing.B) {
	p := figure5Pair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.BuildCtx(context.Background(), p.Inst, p.Reference.Funcs, delta.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate measures Explanation.Validate, the string-level
// Definition 3.5 check every search result passes, on the Figure 5 pair's
// reference explanation.
func BenchmarkValidate(b *testing.B) {
	p := figure5Pair(b)
	e, err := delta.Build(p.Inst, p.Reference.Funcs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// ablationProblem is a mid-sized instance shared by the ablation benches.
func ablationProblem(b *testing.B) *gen.Problem {
	b.Helper()
	ds, err := datasets.Get("ncvoter-1k")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := ds.Build(99)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.5, Tau: 0.5}, Seed: 99})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkAblationQueueWidth(b *testing.B) {
	p := ablationProblem(b)
	for _, rho := range []int{1, 2, 5, 8} {
		b.Run(fmt.Sprintf("rho%d", rho), func(b *testing.B) {
			opts := search.DefaultOptions()
			opts.QueueWidth = rho
			opts.Seed = 5
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationBranching(b *testing.B) {
	p := ablationProblem(b)
	for _, beta := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("beta%d", beta), func(b *testing.B) {
			opts := search.DefaultOptions()
			opts.Beta = beta
			opts.Seed = 5
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationStart(b *testing.B) {
	p := ablationProblem(b)
	for _, start := range []search.StartStrategy{search.StartEmpty, search.StartID, search.StartOverlap} {
		b.Run(start.String(), func(b *testing.B) {
			opts := search.DefaultOptions()
			opts.Start = start
			opts.Seed = 5
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationTheta(b *testing.B) {
	p := ablationProblem(b)
	for _, theta := range []float64{0.05, 0.1, 0.3} {
		b.Run(fmt.Sprintf("theta%v", theta), func(b *testing.B) {
			opts := search.DefaultOptions()
			opts.Induce.Theta = theta
			opts.Seed = 5
			for i := 0; i < b.N; i++ {
				if _, err := search.Run(context.Background(), p.Inst, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSVSourceIngest times the one CSV read path, the CSVSource
// drain (with ingest events and context checks), on a generated
// flight-500k slice. It interns through a table Builder, in batches of
// records — 4-byte codes plus one copy of each distinct value.
func BenchmarkCSVSourceIngest(b *testing.B) {
	spec, err := datasets.Get("flight-500k")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := spec.BuildRows(20000, 9)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Logf("csv bytes: %d, records: %d", len(raw), tab.Len())
	ex, err := affidavit.New()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := ex.ReadSource(context.Background(), affidavit.NewCSVSource(bytes.NewReader(raw))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead pins the tracing bargain: without a recorder on
// the run's context nothing observes — no sink, no per-poll cost — and
// with one attached the recorder's per-event fold stays cheap enough to
// leave on in production services. Compare untraced/traced ns/op in the
// trajectory artifacts.
func BenchmarkTraceOverhead(b *testing.B) {
	spec, err := datasets.Get("bridges")
	if err != nil {
		b.Fatal(err)
	}
	tab, err := spec.Build(9)
	if err != nil {
		b.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		tracing bool
	}{
		{"untraced", false},
		{"traced", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ex, err := affidavit.New(affidavit.WithSeed(9))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				var rec *affidavit.TraceRecorder
				if mode.tracing {
					rec = affidavit.NewTraceRecorder()
					ctx = affidavit.ContextWithObserver(ctx, rec)
				}
				if _, err := ex.ExplainSources(ctx,
					tableSource(p.Inst.Source), tableSource(p.Inst.Target)); err != nil {
					b.Fatal(err)
				}
				if mode.tracing && !rec.Trace().Complete {
					b.Fatal("traced run produced no complete trace")
				}
			}
		})
	}
}
