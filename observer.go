package affidavit

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"

	"affidavit/internal/obs"
)

// Observer receives the pipeline events of every ingest and explanation
// that runs under a context it was attached to (ContextWithObserver).
// Within one run, events arrive from a single goroutine in deterministic
// order for a fixed seed. Concurrent runs interleave their streams, so an
// observer shared across goroutines (a server) must be safe for concurrent
// use. Implementations must be cheap: the search calls them synchronously
// from its poll loop.
//
// The event type lives in an internal package, so only this module
// implements Observer: the observers are the four built here — progress
// (NewProgressObserver), metrics (NewMetricsObserver), one run's trace
// (NewTraceRecorder) and a stream of run traces (NewTraceCollector).
type Observer interface {
	Observe(obs.Event)
}

// NewProgressObserver returns an observer that narrates pipeline progress
// as human-readable lines on w — the observer behind the CLIs' -progress
// flag. It is not safe for concurrent runs; use one per explanation stream.
func NewProgressObserver(w io.Writer) Observer {
	return &progressObserver{w: w}
}

type progressObserver struct {
	w io.Writer
}

func (p *progressObserver) Observe(ev obs.Event) {
	switch ev.Kind {
	case obs.KindIngest:
		if ev.Complete {
			fmt.Fprintf(p.w, "ingest %s: %d records\n", ev.Snapshot, ev.Records)
		}
	case obs.KindSearchStart:
		fmt.Fprintf(p.w, "search: %s start (%s), level %d\n", ev.Mode, ev.Start, ev.StartLevel)
	case obs.KindPoll:
		marker := ""
		if ev.End {
			marker = " [end]"
		}
		fmt.Fprintf(p.w, "poll %d: level %d, cost %g%s\n", ev.Poll, ev.Level, ev.Cost, marker)
	case obs.KindFinalize:
		fmt.Fprintf(p.w, "finalize: salvaged level %d, cost %g\n", ev.Level, ev.Cost)
	case obs.KindConvert:
		fmt.Fprintln(p.w, "convert: building explanation")
	case obs.KindDone:
		state := "done"
		if ev.Cancelled {
			state = "cancelled"
		}
		fmt.Fprintf(p.w, "%s: %d polls, %d states costed, cost %g\n",
			state, ev.Polls, ev.States, ev.Cost)
	}
}

// MetricsObserver aggregates pipeline events into Prometheus-style
// counters and serves them in the text exposition format — the observer
// behind affidavitd's /metrics endpoint. It is safe for concurrent use;
// one instance typically watches every explanation a process runs.
//
// Because pipeline events deliberately carry no wall-clock values (the
// event stream is byte-deterministic), duration metrics cannot be derived
// from Observe alone: feed completed run traces to ObserveTrace to
// populate the run/ingest wall-time histograms.
type MetricsObserver struct {
	mu              sync.Mutex
	ingestedRecords map[string]int64 // by snapshot role
	runsStarted     map[string]int64 // by mode: cold/warm/escalated
	runsDone        int64
	runsCancelled   int64
	polls           int64
	statesCosted    int64
	finalizations   int64
	conversions     int64
	costSum         float64
	runSeconds      histogram
	ingestSeconds   histogram
}

// histogramBounds are the cumulative bucket upper bounds (seconds) of the
// duration histograms — sub-5ms warm hits through multi-minute cold runs.
// numHistogramBuckets must match its length.
var histogramBounds = [numHistogramBuckets]float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

const numHistogramBuckets = 13

// histogram is a fixed-bound Prometheus histogram (guarded by the
// observer's mutex).
type histogram struct {
	counts [numHistogramBuckets]int64 // cumulative per bound; +Inf is count
	sum    float64
	count  int64
}

func (h *histogram) observe(v float64) {
	for i, b := range histogramBounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.count++
}

// NewMetricsObserver returns an empty metrics aggregator.
func NewMetricsObserver() *MetricsObserver {
	return &MetricsObserver{
		ingestedRecords: make(map[string]int64),
		runsStarted:     make(map[string]int64),
	}
}

// ObserveTrace folds a completed run trace into the duration histograms:
// total run wall time and the ingest share. Traces are the recorder
// layer's out-of-band view, which is exactly why this is a separate entry
// point from Observe — the deterministic event stream never carries time.
// Incomplete traces (run still in flight) are ignored.
func (m *MetricsObserver) ObserveTrace(tr *Trace) {
	if tr == nil || !tr.Complete {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runSeconds.observe(tr.DurationMS / 1000)
	if ing := tr.IngestDurationMS(); ing > 0 {
		m.ingestSeconds.observe(ing / 1000)
	}
}

// Observe implements Observer.
func (m *MetricsObserver) Observe(ev obs.Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch ev.Kind {
	case obs.KindIngest:
		// Records is cumulative per snapshot; totals add once, on Complete.
		if ev.Complete {
			m.ingestedRecords[ev.Snapshot] += int64(ev.Records)
		}
	case obs.KindSearchStart:
		m.runsStarted[ev.Mode]++
	case obs.KindPoll:
		m.polls++
	case obs.KindFinalize:
		m.finalizations++
	case obs.KindConvert:
		m.conversions++
	case obs.KindDone:
		m.runsDone++
		if ev.Cancelled {
			m.runsCancelled++
		}
		m.statesCosted += int64(ev.States)
		m.costSum += ev.Cost
	}
}

// writePrometheus renders the counters in the Prometheus text exposition
// format, with series sorted for deterministic output.
func (m *MetricsObserver) writePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	labelled := func(name, help, label string, series map[string]int64) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		keys := make([]string, 0, len(series))
		for k := range series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p("%s{%s=%q} %d\n", name, label, k, series[k])
		}
	}
	counter := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	hist := func(name, help string, h *histogram) {
		p("# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for i, b := range histogramBounds {
			p("%s_bucket{le=\"%g\"} %d\n", name, b, h.counts[i])
		}
		p("%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", name, h.count, name, h.sum, name, h.count)
	}
	labelled("affidavit_ingested_records_total", "Records ingested from snapshot sources.", "snapshot", m.ingestedRecords)
	labelled("affidavit_runs_started_total", "Explanation runs started, by start mode.", "mode", m.runsStarted)
	counter("affidavit_runs_completed_total", "Explanation runs finished.", m.runsDone)
	counter("affidavit_runs_cancelled_total", "Explanation runs interrupted by context.", m.runsCancelled)
	counter("affidavit_search_polls_total", "Search states extracted from the queue.", m.polls)
	counter("affidavit_search_states_costed_total", "Candidate states costed.", m.statesCosted)
	counter("affidavit_finalizations_total", "Best-so-far salvage finalisations.", m.finalizations)
	counter("affidavit_conversions_total", "End-state explanation conversions.", m.conversions)
	p("# HELP affidavit_explanation_cost_sum Sum of final explanation costs.\n# TYPE affidavit_explanation_cost_sum counter\naffidavit_explanation_cost_sum %g\n", m.costSum)
	hist("affidavit_run_duration_seconds", "Wall-clock duration of completed explanation runs, from traces.", &m.runSeconds)
	hist("affidavit_ingest_duration_seconds", "Wall-clock duration of the ingest phase of traced runs.", &m.ingestSeconds)
	return err
}

// ServeHTTP serves the metrics, so a MetricsObserver can be mounted
// directly as a /metrics handler.
func (m *MetricsObserver) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := m.writePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
