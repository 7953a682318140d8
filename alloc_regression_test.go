// Allocation-regression tests: the raw-speed pass drove the hot-path
// allocation counts down by replacing per-call maps, packed string keys and
// throwaway scratch with pooled slabs and open-addressing tables, and the
// induction-on-codes rewrite halved them again. These
// tests pin the two headline workloads — the warm session chain
// (BenchmarkChain/warm) and the scale-20 Figure 5 cold search — under
// explicit allocs-per-run ceilings so a future change that quietly
// reintroduces per-record or per-state allocations fails CI instead of
// only moving a benchmark number.
//
// The ceilings carry 30-40% headroom over the measured counts (10-15% over
// what the same runs read under -race, where sync.Pool drops a quarter of
// its Puts and pooled scratch is rebuilt that much more often), so ordinary
// drift — a few extra allocations per poll, a new trace field — passes,
// while regressing to map-based induction (1.7-2x the measured counts) or
// to the pre-pass shape (7-9x) cannot.
package affidavit_test

import (
	"context"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/search"
	"affidavit/internal/session"
)

// TestAllocRegressionWarmChain mirrors BenchmarkChain/warm: one session
// explains a 4-step ncvoter chain with a shared dictionary pool and
// warm-started searches.
func TestAllocRegressionWarmChain(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression runs full searches; skipped in -short")
	}
	ds, err := datasets.Get("ncvoter-1k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(41)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 4, Eta: 0.1, Tau: 0.5, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Seed = 41
	allocs := testing.AllocsPerRun(1, func() {
		sess := session.New(ch.Snapshots[0], opts, nil)
		for s := 1; s < len(ch.Snapshots); s++ {
			if _, err := sess.ExplainNext(context.Background(), ch.Snapshots[s]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Measured 143k allocs/run with induction on codes (182k under -race) (369k after the
	// raw-speed pass, ~1.7M in the BENCH_5 era).
	const ceiling = 200_000
	t.Logf("warm chain: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("warm chain allocates %.0f per run, over the %d ceiling — a hot path regressed to per-record allocation", allocs, ceiling)
	}
}

// TestAllocRegressionScale20 mirrors BenchmarkFigure5Rows/scale20/seq: a
// cold sequential search over the 20%-scaled flight instance.
func TestAllocRegressionScale20(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression runs full searches; skipped in -short")
	}
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.BuildRows(20000, 38)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := base.Scale(0.20, 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Seed = 1
	opts.Workers = 1
	var inst *delta.Instance = p.Inst
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := search.Run(context.Background(), inst, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 346k allocs/run with induction on codes (403k under -race) (711k after the
	// raw-speed pass, ~2.85M in the BENCH_5 era).
	const ceiling = 460_000
	t.Logf("scale20 cold: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("scale20 cold search allocates %.0f per run, over the %d ceiling — a hot path regressed to per-record allocation", allocs, ceiling)
	}
}
