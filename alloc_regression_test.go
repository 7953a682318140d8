// Allocation-regression tests: the raw-speed pass drove the hot-path
// allocation counts down by replacing per-call maps, packed string keys and
// throwaway scratch with reused slabs and open-addressing tables, and the
// induction-on-codes rewrite halved them again. These
// tests pin the two headline workloads — the warm session chain
// (BenchmarkChain/warm) and the scale-20 Figure 5 cold search — and the
// response encoder (Result.JSON on the full Figure 5 pair) under
// explicit allocs-per-run ceilings so a future change that quietly
// reintroduces per-record or per-state allocations fails CI instead of
// only moving a benchmark number.
//
// The ceilings carry 30-40% headroom over the measured counts, so ordinary
// drift — a few extra allocations per poll, a new trace field — passes,
// while regressing to map-based induction (1.7-2x the measured counts) or
// to the pre-pass shape (7-9x) cannot.
package affidavit_test

import (
	"context"
	"runtime"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/search"
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
	ex, err := affidavit.New(affidavit.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	allocs := repeatedAllocs(t, func() {
		sess := ex.Session(ch.Snapshots[0])
		for s := 1; s < len(ch.Snapshots); s++ {
			if _, err := sess.ExplainNextContext(context.Background(), ch.Snapshots[s]); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Measured 47.0k allocs/run, with or without -race, once a warm step
	// split each carried attribute once and the conversion read the
	// refinement tree's apply memos; 48.3k–48.5k once 1:1 blocks
	// took one comparison and apply memos covered source codes only; 51.1k
	// once each run owned its scratch; 49.0k–51.4k (58.8k under -race) with pooled scratch,
	// mixed-only blocks, the run's example memo and batched interning; 132k
	// with the warm tuple re-blocked by the all-record RefineAll (178k
	// under -race), 144k (185k) before that, 369k after the raw-speed pass.
	const ceiling = 61_000
	t.Logf("warm chain: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("warm chain allocates %.0f per run, over the %d ceiling — a hot path regressed to per-record allocation", allocs, ceiling)
	}
}

// TestAllocRegressionEncode pins Result.JSON, SQL script included, on the
// 20 000-row flight explanation (BenchmarkFigure5Rows/scale100's pair):
// the append encoder writes the record-sized parts itself, so its count
// must not grow with the core, the noise or the script again.
func TestAllocRegressionEncode(t *testing.T) {
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
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := res.JSON("flight"); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 234 allocs/run (273 under -race); json.MarshalIndent over
	// JSONResult with the fmt-built script took 781 772.
	const ceiling = 320
	t.Logf("encode: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("Result.JSON allocates %.0f per run, over the %d ceiling — part of the encoding regressed to per-record allocation", allocs, ceiling)
	}
}

// TestAllocRegressionScale20 mirrors BenchmarkFigure5Rows/scale20: a
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
	var inst *delta.Instance = p.Inst
	allocs := repeatedAllocs(t, func() {
		if _, err := search.Run(context.Background(), inst, opts); err != nil {
			t.Fatal(err)
		}
	})
	// Measured 121.7k allocs/run, with or without -race, once the
	// conversion read the refinement tree's apply memos; 122.2k–122.3k
	// once 1:1 blocks
	// took one comparison and apply memos covered source codes only; 123.5k
	// once each run owned its scratch; 122.6k–125.1k (134k–140k under -race) with pooled
	// scratch, mixed-only blocks, top-β indeterminacy and the run's example
	// memo; 331k with induction on codes (403k under -race), 711k after the
	// raw-speed pass.
	const ceiling = 158_000
	t.Logf("scale20 cold: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("scale20 cold search allocates %.0f per run, over the %d ceiling — a hot path regressed to per-record allocation", allocs, ceiling)
	}
}

// repeatedAllocs runs f once to warm up, then twice more on one thread, and
// returns the mallocs of the first measured run. A run owns its scratch, so
// its count is a function of its inputs: it fails t unless the two measured
// runs agree within 0.1 %.
func repeatedAllocs(t *testing.T, f func()) float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var n [2]uint64
	var ms runtime.MemStats
	for i := range n {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		n[i] = ms.Mallocs - before
	}
	if lo, hi := min(n[0], n[1]), max(n[0], n[1]); float64(hi-lo) > 0.001*float64(lo) {
		t.Errorf("two identical runs allocated %d and %d objects: more than 0.1 %% apart", n[0], n[1])
	}
	return float64(n[0])
}
