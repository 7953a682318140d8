package affidavit

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/gen"
	"affidavit/internal/table"
)

// chain31 builds a snapshot chain over a registry dataset with seed 31.
func chain31(t testing.TB, name string, steps int, permuteKeys bool) *gen.ChainProblem {
	t.Helper()
	ds, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(31)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{
		Steps: steps, Eta: 0.1, Tau: 0.5, Seed: 31, PermuteKeys: permuteKeys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// explainer31 is the paper's default configuration with seed 31.
func explainer31(t testing.TB, opts ...Option) *Explainer {
	t.Helper()
	ex, err := New(append([]Option{WithSeed(31)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func assertSameExplanation(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %v vs %v", label, a.Cost, b.Cost)
	}
	if ak, bk := a.Explanation.Funcs.Key(), b.Explanation.Funcs.Key(); ak != bk {
		t.Errorf("%s: function tuples differ:\n  %s\n  %s", label, ak, bk)
	}
	if !slices.Equal(a.Explanation.CoreSrc, b.Explanation.CoreSrc) ||
		!slices.Equal(a.Explanation.CoreTgt, b.Explanation.CoreTgt) {
		t.Errorf("%s: core alignments differ", label)
	}
	if !slices.Equal(a.Explanation.Deleted, b.Explanation.Deleted) {
		t.Errorf("%s: deletions differ", label)
	}
	if !slices.Equal(a.Explanation.Inserted, b.Explanation.Inserted) {
		t.Errorf("%s: insertions differ", label)
	}
}

// TestSessionWarmChainMatchesColdWithFewerPolls is the session's core
// contract: a warm-start chain run over ≥ 3 successive snapshots of a
// registry dataset produces the same explanations as independent cold runs
// while polling strictly fewer search states on every warm step.
func TestSessionWarmChainMatchesColdWithFewerPolls(t *testing.T) {
	for _, name := range []string{"iris", "bridges", "echo", "balance"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ch := chain31(t, name, 3, false)
			ex := explainer31(t)
			s := ex.Session(ch.Snapshots[0])
			for i := 1; i < len(ch.Snapshots); i++ {
				warm, err := s.ExplainNextContext(context.Background(), ch.Snapshots[i])
				if err != nil {
					t.Fatal(err)
				}
				if err := warm.Explanation.Validate(); err != nil {
					t.Fatalf("step %d: invalid warm explanation: %v", i, err)
				}
				cold, err := ex.Explain(context.Background(), ch.Snapshots[i-1], ch.Snapshots[i])
				if err != nil {
					t.Fatal(err)
				}
				assertSameExplanation(t, fmt.Sprintf("step %d", i), warm, cold)
				// The first step has no warm tuple yet and must equal the
				// cold run's effort too; later steps must beat it strictly.
				if i == 1 {
					if warm.Stats.Polls != cold.Stats.Polls {
						t.Errorf("step 1: warm polls %d, cold polls %d (no warm tuple yet, want equal)",
							warm.Stats.Polls, cold.Stats.Polls)
					}
				} else if warm.Stats.Polls >= cold.Stats.Polls {
					t.Errorf("step %d: warm polls %d not below cold polls %d",
						i, warm.Stats.Polls, cold.Stats.Polls)
				}
			}
		})
	}
}

// TestSessionChainDeterminism: replaying a chain with the same seed
// reproduces every explanation and every statistic.
func TestSessionChainDeterminism(t *testing.T) {
	ch := chain31(t, "bridges", 3, true)
	type step struct {
		key   string
		cost  float64
		stats Stats
	}
	runChain := func() []step {
		s := explainer31(t).Session(ch.Snapshots[0])
		var out []step
		for i := 1; i < len(ch.Snapshots); i++ {
			res, err := s.ExplainNextContext(context.Background(), ch.Snapshots[i])
			if err != nil {
				t.Fatal(err)
			}
			st := res.Stats
			st.Duration = 0
			out = append(out, step{key: res.Explanation.Funcs.Key(), cost: res.Cost, stats: st})
		}
		return out
	}
	a, b := runChain(), runChain()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("step %d not reproducible:\n  %+v\n  %+v", i+1, a[i], b[i])
		}
	}
}

// TestSessionChainPermutedKeys: with per-snapshot key rewriting the warm
// tuple's key mapping is stale, so the mapping-free warm state carries the
// run; explanations stay valid and effort still drops.
func TestSessionChainPermutedKeys(t *testing.T) {
	ch := chain31(t, "balance", 3, true)
	s := explainer31(t).Session(ch.Snapshots[0])
	var polls []int
	for i := 1; i < len(ch.Snapshots); i++ {
		res, err := s.ExplainNextContext(context.Background(), ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Explanation.Validate(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		polls = append(polls, res.Stats.Polls)
	}
	for i := 1; i < len(polls); i++ {
		if polls[i] >= polls[0] {
			t.Errorf("warm step %d polls %d not below cold-start step's %d",
				i+1, polls[i], polls[0])
		}
	}
}

// TestSessionPoolReuse: interning snapshot n+1 against the session pool
// re-interns far less than a cold instance does, because unchanged values
// keep their codes.
func TestSessionPoolReuse(t *testing.T) {
	ch := chain31(t, "bridges", 2, false)
	s := explainer31(t).Session(ch.Snapshots[0])
	if _, err := s.ExplainNextContext(context.Background(), ch.Snapshots[1]); err != nil {
		t.Fatal(err)
	}
	_, before := s.PoolStats()
	if before == 0 {
		t.Fatal("pool empty after first run")
	}
	if _, err := s.ExplainNextContext(context.Background(), ch.Snapshots[2]); err != nil {
		t.Fatal(err)
	}
	_, after := s.PoolStats()
	grown := after - before
	coldInst, err := delta.NewInstance(ch.Snapshots[1], ch.Snapshots[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	coldValues := 0
	for _, b := range coldInst.Coded().Base {
		coldValues += int(b)
	}
	if grown >= coldValues/2 {
		t.Errorf("pool grew by %d values on step 2; cold interning does %d — reuse too low",
			grown, coldValues)
	}
}

// TestSessionExplainPairMatchesCold: pooled single-pair runs equal cold
// runs, statistics included.
func TestSessionExplainPairMatchesCold(t *testing.T) {
	ch := chain31(t, "echo", 2, true)
	ex := explainer31(t)
	s := ex.Session(nil)
	for i := 1; i < len(ch.Snapshots); i++ {
		pooled, err := s.ExplainPairContext(context.Background(), ch.Snapshots[i-1], ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ex.Explain(context.Background(), ch.Snapshots[i-1], ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		assertSameExplanation(t, fmt.Sprintf("pair %d", i), pooled, cold)
		st := pooled.Stats
		st.Duration = cold.Stats.Duration
		if st != cold.Stats {
			t.Errorf("pair %d: stats differ: %+v vs %+v", i, st, cold.Stats)
		}
	}
}

// TestSessionExplainBatchErrors: in a batch of pairs explained on one
// session, a schema-mismatched pair fails alone — no result, an error —
// while the healthy pairs around it still explain and count as runs.
func TestSessionExplainBatchErrors(t *testing.T) {
	ch := chain31(t, "iris", 1, false)
	other, _ := table.NewSchema("completely", "different")
	odd, err := table.FromRows(other, []table.Record{{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	s := explainer31(t).Session(nil)
	ctx := context.Background()
	if res, err := s.ExplainPairContext(ctx, ch.Snapshots[0], ch.Snapshots[1]); err != nil || res == nil {
		t.Fatalf("healthy pair: result %v, err %v", res, err)
	}
	if res, err := s.ExplainPairContext(ctx, ch.Snapshots[0], odd); err == nil || res != nil {
		t.Errorf("mismatched pair: result %v, err %v; want only an error", res, err)
	}
	if res, err := s.ExplainPairContext(ctx, ch.Snapshots[0], ch.Snapshots[1]); err != nil || res == nil {
		t.Errorf("healthy pair after the mismatch: result %v, err %v", res, err)
	}
	if s.Runs() != 2 {
		t.Errorf("session counted %d runs, want the 2 that explained", s.Runs())
	}
}

// TestSessionExplainPairConcurrent runs mixed-schema pairs on a shared
// pool, one goroutine each (the race detector covers the concurrent
// interning), and checks every result equals its cold run.
func TestSessionExplainPairConcurrent(t *testing.T) {
	ex := explainer31(t)
	var pairs [][2]*Table
	var want []*Result
	for _, name := range []string{"iris", "bridges", "echo"} {
		ch := chain31(t, name, 2, true)
		for i := 1; i < len(ch.Snapshots); i++ {
			pairs = append(pairs, [2]*Table{ch.Snapshots[i-1], ch.Snapshots[i]})
			cold, err := ex.Explain(context.Background(), ch.Snapshots[i-1], ch.Snapshots[i])
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, cold)
		}
	}
	s := ex.Session(nil)
	results := make([]*Result, len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, p [2]*Table) {
			defer wg.Done()
			res, err := s.ExplainPairContext(context.Background(), p[0], p[1])
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i, p)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatalf("pair %d: nil result", i)
		}
		assertSameExplanation(t, fmt.Sprintf("pair %d", i), res, want[i])
	}
	if s.Runs() != len(pairs) {
		t.Errorf("session counted %d runs, want %d", s.Runs(), len(pairs))
	}
}

// TestSessionExplainNextNeedsBaseline: chain mode requires an initial
// snapshot.
func TestSessionExplainNextNeedsBaseline(t *testing.T) {
	ch := chain31(t, "iris", 1, false)
	s := explainer31(t).Session(nil)
	if _, err := s.ExplainNextContext(context.Background(), ch.Snapshots[0]); err == nil {
		t.Fatal("want error without a baseline")
	}
}

// TestSessionConcurrentMixedUse hammers one session with concurrent pair
// and chain explanations — race-detector coverage for the shared pool
// and the session state.
func TestSessionConcurrentMixedUse(t *testing.T) {
	ch := chain31(t, "iris", 2, false)
	s := explainer31(t).Session(ch.Snapshots[0])
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			switch g % 3 {
			case 0:
				_, err = s.ExplainPairContext(context.Background(), ch.Snapshots[0], ch.Snapshots[1])
			case 1:
				_, err = s.ExplainNextContext(context.Background(), ch.Snapshots[2])
			case 2:
				_, err = s.ExplainPairContext(context.Background(), ch.Snapshots[0], ch.Snapshots[2])
			}
			if err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestSessionWarmGuardEscalation drives a session whose chain breaks
// mid-stream: after two recurring steps, the next snapshot comes from a
// structurally different chain over the same table. With the guard armed,
// the session escalates that step to a cold search (WarmEscalated) while
// the recurring steps keep the incremental path.
func TestSessionWarmGuardEscalation(t *testing.T) {
	chA := chain31(t, "bridges", 2, false)
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(31)
	if err != nil {
		t.Fatal(err)
	}
	chB, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 1, Eta: 0.1, Tau: 0.5, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	s := explainer31(t, WithWarmGuard(2)).Session(chA.Snapshots[0])
	for i := 1; i < len(chA.Snapshots); i++ {
		res, err := s.ExplainNextContext(context.Background(), chA.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.WarmEscalated {
			t.Fatalf("step %d: guard escalated on the recurring chain", i)
		}
	}
	broken, err := s.ExplainNextContext(context.Background(), chB.Snapshots[1])
	if err != nil {
		t.Fatal(err)
	}
	if !broken.Stats.WarmEscalated {
		t.Fatal("guard did not escalate when the chain's structure broke")
	}
	if err := broken.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	// The escalated run equals a cold run over the same pair.
	cold, err := explainer31(t).Explain(context.Background(), chA.Snapshots[2], chB.Snapshots[1])
	if err != nil {
		t.Fatal(err)
	}
	assertSameExplanation(t, "escalated", broken, cold)
}

// TestSessionCancelledRunLeavesChainIntact: a chain step interrupted by
// its context must neither advance the chain head nor poison the warm
// seed — the interrupted step stays explainable, and retrying it produces
// exactly what an uninterrupted chain would have.
func TestSessionCancelledRunLeavesChainIntact(t *testing.T) {
	ch := chain31(t, "bridges", 3, false)
	ex := explainer31(t)
	s := ex.Session(ch.Snapshots[0])
	if _, err := s.ExplainNextContext(context.Background(), ch.Snapshots[1]); err != nil {
		t.Fatal(err)
	}
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	res, err := s.ExplainNextContext(cancelled, ch.Snapshots[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Cancelled {
		t.Fatal("cancelled context did not tag the run")
	}
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.head != ch.Snapshots[1] {
		t.Fatal("cancelled run advanced the chain head past the unexplained step")
	}
	// Retrying the interrupted step — and the step after it — matches an
	// uninterrupted reference chain exactly.
	ref := ex.Session(ch.Snapshots[0])
	if _, err := ref.ExplainNextContext(context.Background(), ch.Snapshots[1]); err != nil {
		t.Fatal(err)
	}
	for i := 2; i < len(ch.Snapshots); i++ {
		got, err := s.ExplainNextContext(context.Background(), ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Cancelled {
			t.Fatalf("step %d: uncancelled step tagged cancelled", i)
		}
		want, err := ref.ExplainNextContext(context.Background(), ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		assertSameExplanation(t, fmt.Sprintf("retried step %d", i), got, want)
	}
}
