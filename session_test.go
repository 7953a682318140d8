package affidavit_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/obs"
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

// TestSessionExplainBatch: a batch of pairs explained one after another
// on one session's pool — the non-adjacent 0→2 pair last, on a pool that
// already holds snapshot 1 — equals per-pair cold runs.
func TestSessionExplainBatch(t *testing.T) {
	ch := sessionChain(t, "echo", 2)
	ex := newExplainer(t, affidavit.WithSeed(31))
	ctx := context.Background()
	s := ex.Session(nil)
	for _, p := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		src, tgt := ch.Snapshots[p[0]], ch.Snapshots[p[1]]
		pooled, err := s.ExplainPairContext(ctx, src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := ex.Explain(ctx, src, tgt)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("pair %d→%d", p[0], p[1]), pooled, cold)
	}
	if s.Runs() != 3 {
		t.Errorf("session counted %d runs, want 3", s.Runs())
	}
}

// TestSessionReadSourceInternsOnce: a pair read through Session.ReadSource
// lands in the session's pool — right after both reads the pool holds
// exactly the pair's distinct values per attribute — and explaining it
// there, on another session, or from private tables gives the same bytes
// and the same pool the parent commit's double interning left behind.
func TestSessionReadSourceInternsOnce(t *testing.T) {
	src, tgt := figure1Tables(t)
	ctx := context.Background()
	ex := newExplainer(t, affidavit.WithSeed(1))
	read := func(s *affidavit.Session) (*affidavit.Table, *affidavit.Table) {
		t.Helper()
		a, err := s.ReadSource(ctx, tableSource(src), "source")
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.ReadSource(ctx, tableSource(tgt), "target")
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	explain := func(s *affidavit.Session, a, b *affidavit.Table) string {
		t.Helper()
		res, err := s.ExplainPairContext(ctx, a, b)
		if err != nil {
			t.Fatal(err)
		}
		body, err := res.JSON("t")
		if err != nil {
			t.Fatal(err)
		}
		// 99 = the pair's values plus the function outputs the search
		// interns for source values, as measured once apply memos covered
		// source codes only (110 while they also covered target-only
		// codes).
		if attrs, values := s.PoolStats(); attrs != 7 || values != 99 {
			t.Errorf("pool after the run: %d attrs, %d values, want 7 and 99", attrs, values)
		}
		return string(body)
	}
	distinct := 0
	for a := 0; a < src.Schema().Len(); a++ {
		seen := map[string]bool{}
		for _, tab := range []*affidavit.Table{src, tgt} {
			for i := 0; i < tab.Len(); i++ {
				seen[tab.Value(i, a)] = true
			}
		}
		distinct += len(seen)
	}
	pooled := ex.Session(nil)
	ps, pt := read(pooled)
	if attrs, values := pooled.PoolStats(); attrs != 7 || values != distinct {
		t.Fatalf("pool after ReadSource: %d attrs, %d values, want 7 and %d", attrs, values, distinct)
	}
	allPooled := explain(pooled, ps, pt)
	if got := explain(ex.Session(nil), src, tgt); got != allPooled {
		t.Error("private tables explain differently from pooled ones")
	}
	as, at := read(ex.Session(nil))
	if got := explain(ex.Session(nil), as, at); got != allPooled {
		t.Error("a pair read on one session explains differently on another")
	}
}

// TestSessionReadSourceDuringRun: ReadSource interns into the pool while a
// chain run holds the session and a pair run reads the same dictionaries;
// it must not wait for either (the run below cannot finish before the
// reads return) and must be clean under -race.
func TestSessionReadSourceDuringRun(t *testing.T) {
	ch := sessionChain(t, "iris", 2)
	started, release := make(chan struct{}, 2), make(chan struct{})
	ctx := affidavit.ContextWithObserver(context.Background(), observerFunc(func(ev obs.Event) {
		if ev.Kind == obs.KindSearchStart {
			started <- struct{}{}
			<-release
		}
	}))
	ex := newExplainer(t, affidavit.WithSeed(31))
	s := ex.Session(ch.Snapshots[0])
	var wg sync.WaitGroup
	for _, run := range []func() (*affidavit.Result, error){
		func() (*affidavit.Result, error) { return s.ExplainNextContext(ctx, ch.Snapshots[1]) },
		func() (*affidavit.Result, error) { return s.ExplainPairContext(ctx, ch.Snapshots[0], ch.Snapshots[2]) },
	} {
		wg.Add(1)
		go func(run func() (*affidavit.Result, error)) {
			defer wg.Done()
			if _, err := run(); err != nil {
				t.Error(err)
			}
		}(run)
	}
	<-started
	<-started
	for _, snap := range ch.Snapshots {
		tab, err := s.ReadSource(ctx, tableSource(snap), "snapshot")
		if err != nil || tab.Len() != snap.Len() {
			t.Fatalf("ReadSource during a run: %v", err)
		}
	}
	close(release)
	wg.Wait()
}

// TestStationaryChainPollsOnce: on the stationary chain, whose carried
// tuple compresses every step exactly as well as the step before, each
// warm step polls only the carried tuple's state and generates nothing.
func TestStationaryChainPollsOnce(t *testing.T) {
	ch := stationaryChain(t)
	ex, err := affidavit.New(affidavit.WithSeed(41))
	if err != nil {
		t.Fatal(err)
	}
	sess := ex.Session(ch.Snapshots[0])
	for s := 1; s <= 1+stationarySteps; s++ {
		res, err := sess.ExplainNextContext(context.Background(), ch.Snapshots[s])
		if err != nil {
			t.Fatal(err)
		}
		if s > 1 && (res.Stats.Polls != 1 || res.Stats.StatesGenerated != 0) {
			t.Errorf("step %d: polled %d states and generated %d, want 1 and 0",
				s, res.Stats.Polls, res.Stats.StatesGenerated)
		}
	}
}
