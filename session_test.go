package affidavit_test

import (
	"context"
	"fmt"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// sessionChain builds a warm-startable snapshot chain over a registry
// dataset.
func sessionChain(t testing.TB, name string, steps int) *gen.ChainProblem {
	t.Helper()
	ds, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(31)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: steps, Eta: 0.1, Tau: 0.5, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func assertSameResults(t *testing.T, label string, a, b *affidavit.Result) {
	t.Helper()
	if a.Cost != b.Cost {
		t.Errorf("%s: cost %v vs %v", label, a.Cost, b.Cost)
	}
	if a.TrivialCost != b.TrivialCost {
		t.Errorf("%s: trivial cost %v vs %v", label, a.TrivialCost, b.TrivialCost)
	}
	if ak, bk := a.Explanation.Funcs.Key(), b.Explanation.Funcs.Key(); ak != bk {
		t.Errorf("%s: function tuples differ:\n  %s\n  %s", label, ak, bk)
	}
	if fmt.Sprint(a.Explanation.CoreSrc) != fmt.Sprint(b.Explanation.CoreSrc) ||
		fmt.Sprint(a.Explanation.CoreTgt) != fmt.Sprint(b.Explanation.CoreTgt) ||
		fmt.Sprint(a.Explanation.Deleted) != fmt.Sprint(b.Explanation.Deleted) ||
		fmt.Sprint(a.Explanation.Inserted) != fmt.Sprint(b.Explanation.Inserted) {
		t.Errorf("%s: alignments differ", label)
	}
}

// TestSessionChain is the public acceptance contract: a warm-start chain
// run over ≥ 3 successive snapshots of a registry dataset produces the same
// final explanations as independent cold Explain runs while polling
// strictly fewer search states, and the whole chain is reproducible.
func TestSessionChain(t *testing.T) {
	ch := sessionChain(t, "bridges", 3)
	ex := newExplainer(t, affidavit.WithSeed(31))
	ctx := context.Background()
	s := ex.Session(ch.Snapshots[0])
	for i := 1; i < len(ch.Snapshots); i++ {
		warm, err := s.ExplainNextContext(ctx, ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ex.Explain(ctx, ch.Snapshots[i-1], ch.Snapshots[i])
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("step %d", i), warm, cold)
		if i > 1 && warm.Stats.Polls >= cold.Stats.Polls {
			t.Errorf("step %d: warm polls %d not strictly below cold polls %d",
				i, warm.Stats.Polls, cold.Stats.Polls)
		}
		// Reports on session results must render like cold ones.
		if warm.Report() != cold.Report() {
			t.Errorf("step %d: reports differ", i)
		}
		if warm.SQL("t") != cold.SQL("t") {
			t.Errorf("step %d: SQL differs", i)
		}
	}
	if s.Runs() != 3 {
		t.Errorf("session counted %d runs, want 3", s.Runs())
	}
	if attrs, values := s.PoolStats(); attrs == 0 || values == 0 {
		t.Errorf("pool stats empty: %d attrs, %d values", attrs, values)
	}
}

// TestSessionExplainBatch: the public batch API equals per-pair cold runs.
func TestSessionExplainBatch(t *testing.T) {
	ch := sessionChain(t, "echo", 2)
	ex := newExplainer(t, affidavit.WithSeed(31), affidavit.WithWorkers(4))
	ctx := context.Background()
	s := ex.Session(nil)
	pairs := []affidavit.Pair{
		{Source: ch.Snapshots[0], Target: ch.Snapshots[1]},
		{Source: ch.Snapshots[1], Target: ch.Snapshots[2]},
		{Source: ch.Snapshots[0], Target: ch.Snapshots[2]},
	}
	results, err := s.ExplainBatchContext(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		cold, err := ex.Explain(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("pair %d", i), results[i], cold)
	}
}
