package affidavit_test

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/obs"
)

// explainTraced runs one seeded explanation, optionally with a trace
// recorder beside the event collector on its context, and returns the
// result, the raw event stream and the trace (nil when untraced).
func explainTraced(t *testing.T, seed int64, tracing bool) (*affidavit.Result, []obs.Event, *affidavit.Trace) {
	t.Helper()
	ex, err := affidavit.New(affidavit.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	ctx := affidavit.ContextWithObserver(context.Background(), rec)
	var trec *affidavit.TraceRecorder
	if tracing {
		trec = affidavit.NewTraceRecorder()
		ctx = affidavit.ContextWithObserver(ctx, trec)
	}
	src, tgt := figure1Tables(t)
	res, err := ex.ExplainSources(ctx, tableSource(src), tableSource(tgt))
	if err != nil {
		t.Fatal(err)
	}
	if trec == nil {
		return res, rec.events, nil
	}
	return res, rec.events, trec.Trace()
}

// TestTracingByteIdentical: attaching a trace recorder changes nothing the
// determinism contract covers — Result.JSON and the raw event stream are
// byte-identical to an untraced run.
func TestTracingByteIdentical(t *testing.T) {
	plain, plainEvents, _ := explainTraced(t, 7, false)
	traced, tracedEvents, tr := explainTraced(t, 7, true)

	if !tr.Complete {
		t.Fatalf("traced run's trace = %+v, want a complete trace", tr)
	}
	pj, err := plain.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	tj, err := traced.JSON("t")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, tj) {
		t.Error("Result.JSON differs between traced and untraced runs")
	}
	assertSameEvents(t, "tracing", plainEvents, tracedEvents)
	// The trace agrees with the stream it folded.
	if tr.Polls.Polls != traced.Stats.Polls {
		t.Errorf("trace polls %d, stats polls %d", tr.Polls.Polls, traced.Stats.Polls)
	}
	if tr.Cost != traced.Cost {
		t.Errorf("trace cost %v, result cost %v", tr.Cost, traced.Cost)
	}
}

// TestTracingConcurrentRuns: two explanations interleaving on one
// Explainer produce two complete traces that never cross — each run's
// recorder rides its own context, so concurrent event streams cannot
// bleed into each other's trace. Run under -race this also proves the
// recorder path is race-clean.
func TestTracingConcurrentRuns(t *testing.T) {
	ex, err := affidavit.New(affidavit.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	// Two different problem instances, so the two runs have different
	// poll counts — crossed traces would disagree with their results.
	mkPair := func(seed int64) (*affidavit.Table, *affidavit.Table) {
		p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return p.Inst.Source, p.Inst.Target
	}
	results := make([]*affidavit.Result, 2)
	traces := make([]*affidavit.Trace, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src, tgt := mkPair(int64(11 + i))
			trec := affidavit.NewTraceRecorder()
			res, err := ex.ExplainSources(affidavit.ContextWithObserver(context.Background(), trec),
				tableSource(src), tableSource(tgt))
			if err != nil {
				t.Error(err)
				return
			}
			results[i], traces[i] = res, trec.Trace()
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil {
			t.Fatal("a run failed")
		}
		tr := traces[i]
		if !tr.Complete {
			t.Fatalf("run %d: trace = %+v, want complete", i, tr)
		}
		// Each trace must describe exactly its own run.
		if tr.Polls.Polls != res.Stats.Polls {
			t.Errorf("run %d: trace polls %d, stats polls %d — traces crossed",
				i, tr.Polls.Polls, res.Stats.Polls)
		}
		if tr.Cost != res.Cost {
			t.Errorf("run %d: trace cost %v, result cost %v", i, tr.Cost, res.Cost)
		}
		for _, stage := range []string{"ingest:source", "ingest:target", "search"} {
			if tr.SpanFor(stage) == nil {
				t.Errorf("run %d: trace missing span %q", i, stage)
			}
		}
	}
	if traces[0].ID == traces[1].ID {
		t.Error("both runs share one trace ID")
	}
}

// slowSource delays every record, so a snapshot far below the ingest
// chunk still takes measurable wall time to read.
type slowSource struct {
	affidavit.Source
	delay time.Duration
}

func (s slowSource) Next() (affidavit.Record, error) {
	time.Sleep(s.delay)
	return s.Source.Next()
}

// TestTracingTimesFirstIngest: a snapshot under the ingest chunk emits
// only its completion event, so the trace must time the first snapshot
// from the recorder's creation, not from that event — ingest:source
// covers at least the injected delay, and the run's duration at least the
// sum of its spans.
func TestTracingTimesFirstIngest(t *testing.T) {
	ds, err := datasets.Get("bridges")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 200 * time.Microsecond
	ex, err := affidavit.New(affidavit.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	trec := affidavit.NewTraceRecorder()
	if _, err := ex.ExplainSources(affidavit.ContextWithObserver(context.Background(), trec),
		slowSource{tableSource(p.Inst.Source), delay},
		slowSource{tableSource(p.Inst.Target), delay}); err != nil {
		t.Fatal(err)
	}
	tr := trec.Trace()
	src := tr.SpanFor("ingest:source")
	if src == nil {
		t.Fatalf("no ingest:source span in %+v", tr.Spans)
	}
	slept := float64(p.Inst.Source.Len()) * float64(delay) / float64(time.Millisecond)
	if src.DurationMS < slept {
		t.Errorf("ingest:source = %.2f ms, below the %.2f ms the source slept", src.DurationMS, slept)
	}
	var sum float64
	for _, sp := range tr.Spans {
		sum += sp.DurationMS
	}
	if tr.DurationMS < sum {
		t.Errorf("duration %.2f ms < span sum %.2f ms", tr.DurationMS, sum)
	}
}
