package affidavit

import (
	"context"

	"affidavit/internal/obs"
	"affidavit/internal/trace"
)

// Trace is one explanation run's structured trace: per-stage wall-time
// spans (ingest source/target, search, finalize, convert), the
// warm/cold/escalated start decision, and a bounded poll cost-curve
// sample. Traces are operational metadata recorded out-of-band by a
// TraceRecorder: attaching one changes neither the deterministic event
// stream nor Result.JSON — wall-clock times live only here, exactly as
// Stats.Duration lives outside the deterministic JSON stats.
type Trace = trace.RunTrace

// TraceRecorder is an Observer that folds one run's event stream into a
// Trace; its clock starts when it is created. Attach one recorder per run
// with ContextWithObserver and read Trace() when the run returns —
// interleaved runs through a single recorder produce crossed spans, so
// concurrent runs each get their own.
type TraceRecorder = trace.Recorder

// NewTraceRecorder returns a recorder for one run with a fresh random
// trace id.
func NewTraceRecorder() *TraceRecorder {
	return trace.NewRecorder(trace.NewID())
}

// NewTraceCollector returns an Observer for a sequential stream of runs
// (a chain, an eval sweep): each run's events fold into a fresh trace,
// flushed to onTrace at the run's done event — the observer behind the
// eval drivers' -trace-out flag. Each trace starts at its run's first
// event, so a run that ingests a small snapshot first (whose only ingest
// event is its completion) should get a TraceRecorder created before it
// instead. Not for interleaved concurrent runs.
func NewTraceCollector(onTrace func(*Trace)) Observer {
	return trace.NewCollector(onTrace)
}

// ContextWithObserver attaches o to ctx: every explanation and ingest that
// runs under the returned context forwards its events to o. It is the one
// way events reach an observer. Attachments nest — an observer already on
// ctx keeps receiving, before o — so a service attaches its process-wide
// metrics once and a per-request TraceRecorder beside it, across separate
// ingest (Session.ReadSource) and explain (Session) calls, without
// touching the shared Explainer. A nil o returns ctx unchanged.
func ContextWithObserver(ctx context.Context, o Observer) context.Context {
	if o == nil {
		return ctx
	}
	return obs.ContextWithSink(ctx, o.Observe)
}
