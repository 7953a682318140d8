package affidavit

import (
	"context"

	"affidavit/internal/obs"
	"affidavit/internal/trace"
)

// Trace is one explanation run's structured trace: per-stage wall-time
// spans (ingest source/target, search, finalize, convert), the
// warm/cold/escalated start decision, a bounded poll cost-curve sample,
// and spill totals. Traces are operational metadata recorded out-of-band:
// enabling tracing changes neither the deterministic event stream nor
// Result.JSON — wall-clock times live only here, exactly as
// Stats.Duration lives outside the deterministic JSON stats.
type Trace = trace.RunTrace

// TraceSpan is one stage's wall-time extent within a Trace.
type TraceSpan = trace.Span

// TraceRecorder is an Observer that folds one run's event stream into a
// Trace. Attach one recorder per run — interleaved runs through a single
// recorder produce crossed spans; concurrent runs each get their own (see
// WithTracing, which does exactly that).
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder for one run with a fresh random
// trace id.
func NewTraceRecorder() *TraceRecorder {
	return trace.NewRecorder(trace.NewID())
}

// NewTraceCollector returns an Observer for a sequential stream of runs
// (a chain, an eval sweep): each run's events fold into a fresh trace,
// flushed to onTrace at the run's done event — the observer behind the
// CLIs' -trace-out flag. Not for interleaved concurrent runs.
func NewTraceCollector(onTrace func(*Trace)) Observer {
	return trace.NewCollector(onTrace)
}

// ContextWithObserver attaches a per-run observer to ctx: every
// explanation (and ingest) that runs under the returned context forwards
// its events to o, in addition to the Explainer's configured observer.
// Attachments nest — an observer already on ctx keeps receiving. This is
// how a service attaches a per-request TraceRecorder across separate
// ingest (Session.ReadSource) and explain (Session) calls without touching
// the shared Explainer. A nil o returns ctx unchanged.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return obs.ContextWithSink(ctx, o.Observe)
}
