package affidavit_test

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/obs"
	"affidavit/internal/trace"
)

// recorder collects events; safe for this package's single-run tests
// because one run emits from one goroutine.
type recorder struct {
	events []obs.Event
}

func (r *recorder) Observe(ev obs.Event) { r.events = append(r.events, ev) }

// observerFunc adapts a function to affidavit.Observer.
type observerFunc func(obs.Event)

func (f observerFunc) Observe(ev obs.Event) { f(ev) }

// metricsText renders m as its /metrics handler serves it.
func metricsText(t *testing.T, m *affidavit.MetricsObserver) string {
	t.Helper()
	w := httptest.NewRecorder()
	m.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("metrics: status %d: %s", w.Code, w.Body)
	}
	return w.Body.String()
}

// runWithObserver explains one generated pair and returns the observed
// event stream.
func runWithObserver(t *testing.T) []obs.Event {
	t.Helper()
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
	srcCSV := csvBytes(t, p.Inst.Source)
	tgtCSV := csvBytes(t, p.Inst.Target)
	rec := &recorder{}
	ex, err := affidavit.New(affidavit.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.ExplainSources(affidavit.ContextWithObserver(context.Background(), rec),
		affidavit.NewCSVSource(strings.NewReader(srcCSV)),
		affidavit.NewCSVSource(strings.NewReader(tgtCSV))); err != nil {
		t.Fatal(err)
	}
	return rec.events
}

// TestObserverDeterminism: for a fixed seed the event stream is identical
// across repeated runs.
func TestObserverDeterminism(t *testing.T) {
	seq := runWithObserver(t)
	for i := 0; i < 2; i++ {
		assertSameEvents(t, "repeat", seq, runWithObserver(t))
	}

	// Sanity on the stream shape: ingest for both snapshots, one start,
	// ≥ 1 poll, one convert, one done — in pipeline order.
	var kinds []obs.Kind
	for _, ev := range seq {
		if len(kinds) == 0 || kinds[len(kinds)-1] != ev.Kind {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []obs.Kind{
		obs.KindIngest, obs.KindSearchStart, obs.KindPoll,
		obs.KindConvert, obs.KindDone,
	}
	if len(kinds) != len(want) {
		t.Fatalf("event phases = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event phases = %v, want %v", kinds, want)
		}
	}
	if seq[0].Snapshot != "source" || !seq[0].Complete {
		t.Errorf("first event = %+v, want completed source ingest", seq[0])
	}
	last := seq[len(seq)-1]
	if last.Kind != obs.KindDone || last.Polls == 0 || last.Cost == 0 {
		t.Errorf("last event = %+v, want populated done event", last)
	}
}

func assertSameEvents(t *testing.T, label string, a, b []obs.Event) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d events vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: event %d differs: %+v vs %+v", label, i, a[i], b[i])
			return
		}
	}
}

// TestIngestChunkEvents: snapshots larger than the ingest chunk emit
// cumulative progress events before the completion event.
func TestIngestChunkEvents(t *testing.T) {
	const n = 20000
	schema, err := affidavit.NewSchema("id", "v")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	src := &rowsSource{schema: schema, next: func() (affidavit.Record, error) {
		if i >= n {
			return nil, io.EOF
		}
		i++
		return affidavit.Record{string(rune('a' + i%26)), "x"}, nil
	}}
	rec := &recorder{}
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ex.ReadSource(affidavit.ContextWithObserver(context.Background(), rec), src)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != n {
		t.Fatalf("ingested %d records, want %d", tab.Len(), n)
	}
	var counts []int
	for _, ev := range rec.events {
		if ev.Kind != obs.KindIngest {
			t.Fatalf("unexpected event %+v", ev)
		}
		counts = append(counts, ev.Records)
	}
	if len(counts) != 3 || counts[0] != 8192 || counts[1] != 16384 || counts[2] != n {
		t.Errorf("progress counts = %v, want [8192 16384 %d]", counts, n)
	}
	if !rec.events[len(rec.events)-1].Complete {
		t.Error("final ingest event not marked complete")
	}
}

// TestMetricsObserver: the Prometheus rendering carries the run's
// counters.
func TestMetricsObserver(t *testing.T) {
	src, tgt := figure1Tables(t)
	m := affidavit.NewMetricsObserver()
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExplainSources(affidavit.ContextWithObserver(context.Background(), m),
		tableSource(src), tableSource(tgt))
	if err != nil {
		t.Fatal(err)
	}
	out := metricsText(t, m)
	for _, want := range []string{
		`affidavit_ingested_records_total{snapshot="source"} 17`,
		`affidavit_ingested_records_total{snapshot="target"} 16`,
		`affidavit_runs_started_total{mode="cold"} 1`,
		"affidavit_runs_completed_total 1",
		"affidavit_runs_cancelled_total 0",
		"affidavit_conversions_total 1",
		"# TYPE affidavit_search_polls_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
	if res.Stats.Polls == 0 {
		t.Error("no polls recorded")
	}
}

// TestMetricsObserverHistograms: ObserveTrace feeds the duration
// histograms, rendered with cumulative buckets, sum and count; incomplete
// and nil traces are ignored.
func TestMetricsObserverHistograms(t *testing.T) {
	m := affidavit.NewMetricsObserver()
	m.ObserveTrace(nil)
	m.ObserveTrace(&affidavit.Trace{DurationMS: 1000}) // not Complete: ignored
	m.ObserveTrace(&affidavit.Trace{
		Complete:   true,
		DurationMS: 120, // 0.12s → first bucket le="0.25"
		Spans: []trace.Span{
			{Stage: "ingest:source", DurationMS: 30},
			{Stage: "ingest:target", DurationMS: 10}, // 0.04s → le="0.05"
			{Stage: "search", DurationMS: 80},
		},
	})
	m.ObserveTrace(&affidavit.Trace{Complete: true, DurationMS: 90000}) // 90s → only +Inf
	out := metricsText(t, m)
	for _, want := range []string{
		"# TYPE affidavit_run_duration_seconds histogram",
		`affidavit_run_duration_seconds_bucket{le="0.1"} 0`,
		`affidavit_run_duration_seconds_bucket{le="0.25"} 1`,
		`affidavit_run_duration_seconds_bucket{le="60"} 1`,
		`affidavit_run_duration_seconds_bucket{le="+Inf"} 2`,
		"affidavit_run_duration_seconds_sum 90.12",
		"affidavit_run_duration_seconds_count 2",
		`affidavit_ingest_duration_seconds_bucket{le="0.025"} 0`,
		`affidavit_ingest_duration_seconds_bucket{le="0.05"} 1`,
		`affidavit_ingest_duration_seconds_bucket{le="+Inf"} 1`,
		"affidavit_ingest_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}
