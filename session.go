package affidavit

import (
	"context"

	"affidavit/internal/search"
	"affidavit/internal/session"
)

// Pair is one source/target snapshot pair of a batch explanation.
type Pair = session.Pair

// Session is a long-lived explanation context for snapshot chains and
// batches, created by Explainer.Session. Where Explainer.Explain treats
// every pair in isolation, a session keeps a shared dictionary pool —
// values interned while explaining snapshot n keep their codes when
// snapshot n+1 arrives, so only novel values pay interning cost, and a
// snapshot read through ReadSource is interned there once, at ingest — and
// warm-starts each chain run with the previous explanation, re-validated
// and re-costed against the new pair, so recurring transformation patterns
// are confirmed in a handful of queue polls instead of re-discovered from
// scratch.
//
// Sessions are safe for concurrent use. ExplainPairContext and
// ExplainBatchContext results are identical to cold Explainer.Explain runs
// with the same options and seed — the shared pool only changes the
// interning work. The warm paths (ExplainNextContext, ExplainWarmContext)
// run the search in incremental mode: on a recurring pattern they converge
// to the same explanation with a fraction of the effort, but they anchor
// on the previous structure, so when the feed's pattern changes the result
// — always a valid explanation — may differ from a cold run's. Use
// Explainer.Explain (or ExplainPairContext) when cold-search behaviour is
// required, or arm WithWarmGuard to have stale warm seeds escalate to a
// cold search automatically.
//
// Every method honours cancellation and deadlines: an interrupted run
// still returns a valid best-so-far result with Stats.Cancelled set, and
// the session skips storing an interrupted run's tuple as the next warm
// seed.
type Session struct {
	inner *session.Session
	ex    *Explainer
}

// single runs one traced single-pair explanation (batch runs interleave
// pairs on one context and are deliberately not traced).
func (s *Session) single(ctx context.Context, run func(context.Context) (*search.Result, error)) (*Result, error) {
	ctx, rec := s.ex.traceRun(ctx)
	res, err := run(ctx)
	if err != nil {
		return nil, err
	}
	return traced(s.ex.newResult(res), rec), nil
}

// ExplainNextContext explains the difference between the chain head and
// next, advances the chain head to next, and stores the learned functions
// as the warm start of the following call. Chains are deterministic for
// fixed seeds: re-running the same chain reproduces every explanation and
// every search statistic.
func (s *Session) ExplainNextContext(ctx context.Context, next *Table) (*Result, error) {
	return s.single(ctx, func(ctx context.Context) (*search.Result, error) {
		return s.inner.ExplainNext(ctx, next)
	})
}

// ExplainPairContext explains one pair over the session's shared
// dictionary pool without touching the chain state. Safe to call
// concurrently.
func (s *Session) ExplainPairContext(ctx context.Context, source, target *Table) (*Result, error) {
	return s.single(ctx, func(ctx context.Context) (*search.Result, error) {
		return s.inner.ExplainPair(ctx, source, target)
	})
}

// ExplainWarmContext explains one pair over the shared pool, warm-started
// with the session's most recent explanation of the same schema, and
// stores the learned functions for the next call — the service-shaped
// variant of ExplainNextContext for repeated uploads of the same table.
// Concurrent calls are race-clean; the stored warm tuple is
// last-writer-wins, which affects only search effort, never the
// explanation.
func (s *Session) ExplainWarmContext(ctx context.Context, source, target *Table) (*Result, error) {
	return s.single(ctx, func(ctx context.Context) (*search.Result, error) {
		return s.inner.ExplainWarm(ctx, source, target)
	})
}

// ExplainBatchContext explains every pair over the shared dictionary pool,
// fanning out across the Explainer's configured Workers (at most one
// goroutine per pair; Workers ≤ 1 runs sequentially). Results arrive in
// input order and equal per-pair cold runs. Failed pairs leave nil
// entries; the returned error joins every failure. Cancelling ctx
// interrupts every in-flight pair, each returning its best-so-far result
// with Stats.Cancelled set.
func (s *Session) ExplainBatchContext(ctx context.Context, pairs []Pair) ([]*Result, error) {
	raw, err := s.inner.ExplainBatch(ctx, pairs, max(s.ex.so.Workers, 1))
	out := make([]*Result, len(raw))
	for i, r := range raw {
		if r != nil {
			out[i] = s.ex.newResult(r)
		}
	}
	return out, err
}

// ReadSource drains src into a Table interned straight into the session's
// dictionary pool, so explaining it on this session shares the stored
// columns instead of translating them: every value is interned once. label
// names the snapshot in the observer's ingest events. It does not wait for
// a run in progress. The pool keeps every value read this way for the
// session's lifetime, whether or not the table is explained afterwards;
// explaining the table elsewhere is still correct, it only pays the
// translation Explainer.ReadSource tables pay.
func (s *Session) ReadSource(ctx context.Context, src Source, label string) (*Table, error) {
	return s.ex.readSource(ctx, src, s.inner.Pool(), label)
}

// PoolStats reports the shared dictionary pool's size: the number of
// attribute dictionaries and the total interned values across them.
func (s *Session) PoolStats() (attrs, values int) {
	return s.inner.Pool().Attrs(), s.inner.Pool().Values()
}

// Runs returns how many explanations the session has produced.
func (s *Session) Runs() int { return s.inner.Runs() }
