// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 5), plus ablations over the design choices DESIGN.md calls out.
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
// cmd/table2, cmd/rowscale and cmd/attrscale regenerate the full-size
// artifacts (see EXPERIMENTS.md).
package affidavit_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"affidavit"
	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/gen"
	"affidavit/internal/metafunc"
	"affidavit/internal/satreduce"
	"affidavit/internal/search"
	"affidavit/internal/session"
	"affidavit/internal/spill"
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
		if r.NumBlocks() == 0 {
			b.Fatal("no blocks")
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
		tr := &search.TreeTracer{}
		o := opts
		o.Tracer = tr
		if _, err := search.Run(context.Background(), inst, o); err != nil {
			b.Fatal(err)
		}
		if len(tr.Polls()) == 0 {
			b.Fatal("no trace")
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
	const baseRows = 20000 // paper: 500000; cmd/rowscale runs full size
	tab, err := ds.BuildRows(baseRows, 38)
	if err != nil {
		b.Fatal(err)
	}
	base, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	// Each scale runs both engines: "seq" is the sequential baseline, "par"
	// the worker-pool engine at GOMAXPROCS workers. Equal seeds make the
	// two solve the identical search tree, so the ratio is a pure engine
	// comparison (on multi-core hosts par/seq shows the worker-pool
	// speedup; at GOMAXPROCS=1 the two coincide).
	for _, pct := range []int{20, 40, 60, 80, 100} {
		p := base
		if pct < 100 {
			var err error
			p, err = base.Scale(float64(pct)/100, int64(pct))
			if err != nil {
				b.Fatal(err)
			}
		}
		for _, engine := range []struct {
			name    string
			workers int
		}{
			{"seq", 1},
			{"par", runtime.GOMAXPROCS(0)},
		} {
			b.Run(fmt.Sprintf("scale%d/%s", pct, engine.name), func(b *testing.B) {
				opts := search.DefaultOptions()
				opts.Seed = 1
				opts.Workers = engine.workers
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

// BenchmarkChain measures the session subsystem on a 4-step snapshot
// chain: "cold" explains every consecutive pair independently, "warm"
// drives one session through the chain (shared dictionary pool plus
// warm-started search). The warm/cold ratio is the chain-mode payoff.
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
		for i := 0; i < b.N; i++ {
			sess := session.New(ch.Snapshots[0], opts, nil)
			for s := 1; s < len(ch.Snapshots); s++ {
				if _, err := sess.ExplainNext(context.Background(), ch.Snapshots[s]); err != nil {
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

// BenchmarkBuild measures the end-state conversion in isolation —
// delta.BuildCtx's memos, greedy multiset matching and assembly — on the
// Figure 5 instance (40 000 rows) with its reference function tuple: w1 is
// the one-partition matching, w2 two in-memory partitions on two
// goroutines, disk the same matching under a 1 MiB budget (eight
// partitions, matched one at a time, member lists in a temp file). All three produce the
// same explanation (TestBuildShardedMatchesSequential,
// TestBuildExternalMatchesSequential).
//
// w2 pins GOMAXPROCS to 2 for its duration: the partition count is clamped
// to GOMAXPROCS, so on a one-CPU runner it would otherwise silently time w1
// again.
func BenchmarkBuild(b *testing.B) {
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
	p.Inst.Coded() // intern outside the timer; every variant shares the view
	for _, v := range []struct {
		name string
		opts delta.BuildOptions
	}{
		{"w1", delta.BuildOptions{Workers: 1}},
		{"w2", delta.BuildOptions{Workers: 2}},
		{"disk", delta.BuildOptions{Workers: 1, Spill: spill.NewManager(1<<20, b.TempDir())}},
	} {
		b.Run(v.name, func(b *testing.B) {
			if prev := runtime.GOMAXPROCS(0); v.opts.Workers > prev {
				runtime.GOMAXPROCS(v.opts.Workers)
				defer runtime.GOMAXPROCS(prev)
			}
			for i := 0; i < b.N; i++ {
				if _, err := delta.BuildCtx(context.Background(), p.Inst, p.Reference.Funcs, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// BenchmarkCSVSourceIngest times the two CSV front doors on a generated
// flight-500k slice: ReadCSV ("buffered", a name from when it held the
// whole file as [][]string) and the CSVSource path ("streamed", with
// ingest events and context checks). Both now intern row by row into the
// same table — 4-byte codes plus one copy of each distinct value — so the
// arms should read alike.
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

	b.Run("buffered", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := affidavit.ReadCSV(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("streamed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		ex, err := affidavit.New()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := ex.ReadSource(context.Background(), affidavit.NewCSVSource(bytes.NewReader(raw))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTraceOverhead pins the tracing bargain: with tracing disabled
// (the default) the per-run observer chain contributes nothing — no
// recorder, no context sink, no per-poll cost — and with tracing enabled
// the recorder's per-event fold stays cheap enough to leave on in
// production services. Compare untraced/traced ns/op in the trajectory
// artifacts.
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
			opts := []affidavit.Option{affidavit.WithSeed(9)}
			if mode.tracing {
				opts = append(opts, affidavit.WithTracing())
			}
			ex, err := affidavit.New(opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ex.ExplainSources(context.Background(),
					affidavit.TableSource(p.Inst.Source), affidavit.TableSource(p.Inst.Target))
				if err != nil {
					b.Fatal(err)
				}
				if mode.tracing && (res.Trace == nil || !res.Trace.Complete) {
					b.Fatal("traced run produced no complete trace")
				}
			}
		})
	}
}
