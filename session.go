package affidavit

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"affidavit/internal/delta"
	"affidavit/internal/table"
)

// Session is a long-lived explanation context for snapshot chains and
// streams of pairs, created by Explainer.Session. Where Explainer.Explain
// treats every pair in isolation, a session keeps a shared dictionary pool —
// values interned while explaining snapshot n keep their codes when
// snapshot n+1 arrives, so only novel values pay interning cost, and a
// snapshot read through ReadSource is interned there once, at ingest — and
// warm-starts each chain run with the previous explanation, re-validated
// and re-costed against the new pair, so recurring transformation patterns
// are confirmed in a handful of queue polls instead of re-discovered from
// scratch.
//
// Sessions are safe for concurrent use: the pool is concurrency-safe,
// chain runs serialise on the session, and pair runs proceed in parallel.
// ExplainPairContext results are identical to cold Explainer.Explain runs
// with the same options and seed — the shared pool only changes the
// interning work. The warm path (ExplainNextContext) runs
// the search in incremental mode: on a recurring pattern it converges to
// the same explanation with a fraction of the effort, but it anchors on
// the previous structure, so when the feed's pattern changes the result —
// always a valid explanation — may differ from a cold run's. Use
// Explainer.Explain (or ExplainPairContext) when cold-search behaviour is
// required, or arm WithWarmGuard to have stale warm seeds escalate to a
// cold search automatically.
//
// Every method honours cancellation and deadlines: an interrupted run
// still returns a valid best-so-far result with Stats.Cancelled set, and
// the session neither advances its chain head nor stores the interrupted
// run's tuple as the next warm seed.
type Session struct {
	ex   *Explainer
	pool *table.DictPool

	mu   sync.Mutex
	head *Table   // chain head: what ExplainNextContext diffs against
	warm warmSeed // the latest finished chain run
	// runs is read without mu, so a stats reader never waits for a chain
	// run to finish.
	runs atomic.Int64
}

// warmSeed is what a finished run leaves for the next warm run: its
// function tuple, the schema the tuple was learned on, and its cost as a
// fraction of the trivial cost (the baseline the warm guard compares
// against). The zero value seeds nothing.
type warmSeed struct {
	funcs  delta.FuncTuple
	schema *Schema
	ratio  float64
}

// seedFrom records res as the next warm seed. Callers pass only runs that
// were not cancelled: an interrupted best-so-far tuple would poison the
// chain.
func (w *warmSeed) seedFrom(res *Result, schema *Schema) {
	w.funcs = res.Explanation.Funcs.Clone()
	w.schema = schema
	w.ratio = 0
	if res.TrivialCost > 0 {
		w.ratio = res.Cost / res.TrivialCost
	}
}

// Session creates a long-lived session sharing the Explainer's
// configuration. initial, when non-nil, is the chain baseline: the first
// ExplainNextContext call diffs it against its argument. A nil initial
// starts a pair/service session — ExplainPairContext works immediately,
// while ExplainNextContext errors: it has no baseline.
func (e *Explainer) Session(initial *Table) *Session {
	return &Session{ex: e, pool: table.NewDictPool(), head: initial}
}

// run executes one search over the pair interned into the session pool,
// warm-seeded when warm was learned on the source's schema.
func (s *Session) run(ctx context.Context, source, target *Table, warm warmSeed) (*Result, error) {
	inst, err := delta.NewInstanceWithDicts(source, target, s.ex.metas, s.pool.DictsFor(source.Schema()))
	if err != nil {
		return nil, err
	}
	so := s.ex.so
	if warm.funcs != nil && warm.schema.Equal(source.Schema()) {
		so.WarmStart = warm.funcs
		so.WarmPrevRatio = warm.ratio
	}
	return s.ex.run(ctx, inst, so)
}

// ExplainNextContext explains the difference between the chain head and
// next, advances the chain head to next, and stores the learned functions
// as the warm start of the following call. Chain runs serialise on the
// session, and chains are deterministic for fixed seeds: re-running the
// same chain reproduces every explanation and every search statistic. A
// run interrupted by ctx leaves the chain untouched, so retrying with the
// same snapshot re-explains the step instead of silently skipping it.
func (s *Session) ExplainNextContext(ctx context.Context, next *Table) (*Result, error) {
	if next == nil {
		return nil, errors.New("affidavit: ExplainNextContext needs a snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == nil {
		return nil, errors.New("affidavit: no chain baseline (create the session with an initial snapshot)")
	}
	res, err := s.run(ctx, s.head, next, s.warm)
	if err != nil {
		return nil, err
	}
	if !res.Stats.Cancelled {
		s.head = next
		s.warm.seedFrom(res, next.Schema())
	}
	s.runs.Add(1)
	return res, nil
}

// ExplainPairContext explains one pair over the session's shared
// dictionary pool without touching the chain state. Safe to call
// concurrently; the result is independent of what the pool already holds.
func (s *Session) ExplainPairContext(ctx context.Context, source, target *Table) (*Result, error) {
	res, err := s.run(ctx, source, target, warmSeed{})
	if err != nil {
		return nil, err
	}
	s.runs.Add(1)
	return res, nil
}

// ReadSource drains src into a Table interned straight into the session's
// dictionary pool, so explaining it on this session shares the stored
// columns instead of translating them: every value is interned once. label
// names the snapshot in the ingest events of observers on ctx. It does not wait for
// a run in progress. The pool keeps every value read this way for the
// session's lifetime, whether or not the table is explained afterwards;
// explaining the table elsewhere is still correct, it only pays the
// translation Explainer.ReadSource tables pay.
func (s *Session) ReadSource(ctx context.Context, src Source, label string) (*Table, error) {
	return readSource(ctx, src, s.pool, label)
}

// PoolStats reports the shared dictionary pool's size: the number of
// attribute dictionaries and the total interned values across them.
func (s *Session) PoolStats() (attrs, values int) {
	return s.pool.Attrs(), s.pool.Values()
}

// Runs returns how many explanations the session has produced.
func (s *Session) Runs() int {
	return int(s.runs.Load())
}
