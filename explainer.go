package affidavit

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/obs"
	"affidavit/internal/schemamatch"
	"affidavit/internal/search"
	"affidavit/internal/session"
	"affidavit/internal/spill"
	"affidavit/internal/table"
	"affidavit/internal/trace"
)

// Explainer is the long-lived front door of the package: one fully-resolved
// configuration shared by every explanation it runs, built once from
// functional options and validated eagerly. Every With option sets exactly
// the value it names — there is no "zero means default" — so α = 0 and
// θ = 0 are expressible.
//
//	ex, err := affidavit.New(
//	    affidavit.WithAlpha(0.3),
//	    affidavit.WithWorkers(8),
//	    affidavit.WithObserver(metrics),
//	)
//	res, err := ex.Explain(ctx, src, tgt)
//
// Explainers are immutable after New and safe for concurrent use; every
// run copies the configuration. Sessions created via Session share the
// Explainer's configuration and observer.
type Explainer struct {
	so      search.Options
	metas   []metafunc.Meta
	obs     Observer
	budget  int64 // WithMemBudget; 0 = unlimited
	tracing bool  // WithTracing; record a per-run Trace into Result.Trace
}

// Option configures an Explainer. Options apply in order; later options
// override earlier ones. Validation happens once, in New.
type Option func(*Explainer)

// New builds an Explainer from the paper's default configuration (Hid
// start, β = 2, ϱ = 5, α = 0.5, θ = 0.1, ρ = 0.95, sequential engine) with
// the given options applied, and validates the result eagerly — a
// misconfigured Explainer fails here, not on its first explanation.
func New(opts ...Option) (*Explainer, error) {
	e := &Explainer{so: search.DefaultOptions(), metas: metafunc.DefaultMetas()}
	for _, opt := range opts {
		opt(e)
	}
	if e.budget < 0 {
		return nil, fmt.Errorf("affidavit: memory budget must be ≥ 0, got %d", e.budget)
	}
	if e.budget > 0 {
		// One manager for the Explainer's lifetime: every run it executes
		// spills against the same budget.
		e.so.Spill = spill.NewManager(e.budget, "")
	}
	if err := e.so.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// WithAlpha sets the MDL cost parameter α ∈ [0,1] (Definition 3.10): it
// weighs unexplained records against function complexity in the cost
// 2α·L(T+) + 2(1−α)·L(F). An explicit 0 is honoured: the cost then weighs
// only function complexity.
func WithAlpha(alpha float64) Option { return func(e *Explainer) { e.so.Alpha = alpha } }

// WithBeta sets the search branching factor β ≥ 1.
func WithBeta(beta int) Option { return func(e *Explainer) { e.so.Beta = beta } }

// WithQueueWidth sets the bounded-queue width ϱ ≥ 1.
func WithQueueWidth(width int) Option { return func(e *Explainer) { e.so.QueueWidth = width } }

// WithStart selects the start-state strategy (StartID, StartOverlap,
// StartEmpty).
func WithStart(s Start) Option { return func(e *Explainer) { e.so.Start = s } }

// WithOverlapConfig applies the paper's fast greedy Hs configuration
// (overlap start, β = 1, ϱ = 1). Compose further options after it to
// adjust.
func WithOverlapConfig() Option {
	return func(e *Explainer) {
		e.so.Start = search.StartOverlap
		e.so.Beta = 1
		e.so.QueueWidth = 1
	}
}

// WithMaxBlockSize sets the overlap-matching block threshold used by
// StartOverlap.
func WithMaxBlockSize(n int) Option { return func(e *Explainer) { e.so.MaxBlockSize = n } }

// WithTheta sets θ ∈ [0,1], the estimated fraction of records showing a
// transformation's effect (it drives sampling sizes). An explicit 0 is
// honoured and means minimal sampling: the induction sample falls to its
// floor and overlap ranking samples nothing.
func WithTheta(theta float64) Option { return func(e *Explainer) { e.so.Induce.Theta = theta } }

// WithRho sets the sampling confidence level ρ ∈ [0,1].
func WithRho(rho float64) Option { return func(e *Explainer) { e.so.Induce.Rho = rho } }

// WithSeed sets the seed driving all sampling; equal seeds give equal
// explanations.
func WithSeed(seed int64) Option { return func(e *Explainer) { e.so.Seed = seed } }

// WithMaxExpansions caps search-state expansions; 0 = unlimited.
func WithMaxExpansions(n int) Option { return func(e *Explainer) { e.so.MaxExpansions = n } }

// WithWorkers bounds how many search probes run concurrently (0 or 1 =
// sequential engine). For any fixed seed the parallel and sequential
// engines return identical explanations. Workers > 1 also partitions the
// end-state conversion's multiset matching, with byte-identical output.
func WithWorkers(n int) Option { return func(e *Explainer) { e.so.Workers = n } }

// WithWarmGuard arms the warm-start quality guard used by session warm
// paths (ExplainNextContext, ExplainWarmContext): when the previous
// explanation, re-validated against the new pair, costs more than g × the
// previous run's compression ratio, the run escalates to a cold search
// instead of anchoring on the stale structure (Stats.WarmEscalated reports
// it). 0 disables the guard.
func WithWarmGuard(g float64) Option { return func(e *Explainer) { e.so.WarmGuard = g } }

// WithMemBudget runs every explanation under an approximate budget of n
// bytes (0 = unlimited) for its auxiliary memory: the overlap start
// strategy groups its score index through disk partitions, and the
// end-state conversion matches one disk-backed partition at a time. The
// snapshots themselves (interned code columns, 4 bytes per cell, plus
// their distinct values) and blocking's refinements stay resident.
// Explanations are byte-identical to the unbudgeted run for equal seeds —
// the budget trades disk I/O for peak memory, which is what lets the
// paper's full 500k-row Figure 5 instance run on small machines. Spill
// activity is observable: Stats carries the run's spilled bytes/partitions,
// and observers receive per-stage EventSpill events (metrics:
// affidavit_spill_bytes_total, affidavit_spill_partitions_total).
func WithMemBudget(n int64) Option { return func(e *Explainer) { e.budget = n } }

// ParseMemBudget parses a human-readable byte size for WithMemBudget: a
// plain integer (bytes) or an integer with a KB/MB/GB (decimal) or
// KiB/MiB/GiB (binary) suffix, e.g. "256MiB". "" and "0" mean no budget.
func ParseMemBudget(s string) (int64, error) { return spill.ParseSize(s) }

// WithExtraMetas extends the built-in meta-function library with
// domain-specific families.
func WithExtraMetas(metas ...Meta) Option {
	return func(e *Explainer) { e.metas = append(e.metas, metas...) }
}

// WithObserver attaches a pipeline observer (progress, metrics). Events
// within one run arrive in deterministic order for a fixed seed;
// concurrent runs interleave, so shared observers must be safe for
// concurrent use. A nil observer is the default no-op and costs nothing on
// the hot path; Observers(...) compositions normalise to that same nil,
// so WithObserver(Observers(nil, nil)) is equally free.
func WithObserver(o Observer) Option { return func(e *Explainer) { e.obs = Observers(o) } }

// WithTracing records a structured per-run trace into Result.Trace: stage
// spans with wall times (ingest source/target, search, finalize, convert),
// the warm/cold/escalated start decision, a bounded poll cost-curve
// sample, and spill totals. Each run gets its own recorder attached
// through the Observers fan-out, so concurrent runs trace independently
// and any WithObserver observer keeps receiving every event. Wall-clock
// values are captured out-of-band in the recorder — the event stream and
// Result.JSON stay byte-identical with tracing on or off. Batch runs
// (ExplainBatch) are not traced: their pairs interleave on one context.
func WithTracing() Option { return func(e *Explainer) { e.tracing = true } }

// Fingerprint digests every result-affecting engine option — α, β, the
// queue width ϱ, the start strategy, the overlap block threshold, the
// induction configuration (θ, ρ and its caps), the sampling seed and the
// expansion cap — plus the installed meta-function families, into a
// 16-hex-character identity. Two Explainers with equal fingerprints
// produce byte-identical explanations for identical inputs; byte-neutral
// knobs (workers, memory budget, observers, tracing, warm-only guards)
// are deliberately excluded. affidavitd folds the fingerprint into the
// job content address, so a configuration change stops serving results
// computed under the old flags.
func (e *Explainer) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "alpha=%g beta=%d width=%d start=%d maxblock=%d theta=%g conf=%g mingen=%d maxranked=%d maxsrc=%d seed=%d maxexp=%d",
		e.so.Alpha, e.so.Beta, e.so.QueueWidth, e.so.Start, e.so.MaxBlockSize,
		e.so.Induce.Theta, e.so.Induce.Rho, e.so.Induce.MinGenerated,
		e.so.Induce.MaxRanked, e.so.Induce.MaxSourceValuesPerBlock,
		e.so.Seed, e.so.MaxExpansions)
	for _, m := range e.metas {
		fmt.Fprintf(h, " meta=%s", m.Name())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// searchOptions returns the per-run search configuration, wiring the
// observer in.
func (e *Explainer) searchOptions() search.Options {
	so := e.so
	if e.obs != nil {
		so.OnEvent = e.obs.Observe
	}
	return so
}

// traceRun attaches a fresh per-run trace recorder to ctx when tracing is
// enabled, so every emission point serving this run — ingest drains and
// the search loop alike — feeds it alongside the configured observer.
func (e *Explainer) traceRun(ctx context.Context) (context.Context, *trace.Recorder) {
	if !e.tracing {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rec := trace.NewRecorder(trace.NewID())
	return obs.ContextWithSink(ctx, rec.Observe), rec
}

// runSink is the ingest-path event sink for one call: the configured
// observer chained with any per-run sink the context carries.
func (e *Explainer) runSink(ctx context.Context) obs.Sink {
	var base obs.Sink
	if e.obs != nil {
		base = e.obs.Observe
	}
	return obs.Chain(base, obs.FromContext(ctx))
}

// Explain explains the difference between two in-memory snapshots sharing
// a schema. The search, its blocking refinements and the end-state
// conversion all observe ctx's cancellation and deadlines cooperatively.
// An interrupted run is not an error — it returns the best explanation
// found so far (always valid) with Stats.Cancelled set, so callers on a
// deadline keep the partial work and can distinguish complete from
// interrupted results.
func (e *Explainer) Explain(ctx context.Context, source, target *Table) (*Result, error) {
	ctx, rec := e.traceRun(ctx)
	inst, err := delta.NewInstance(source, target, e.metas)
	if err != nil {
		return nil, err
	}
	res, err := e.explainInstance(ctx, inst)
	if err != nil {
		return nil, err
	}
	return traced(res, rec), nil
}

// ExplainRenamed explains snapshots whose target schema was renamed or
// reordered (the paper's future-work problem variant): attributes are first
// matched by value-distribution similarity, the target is rewritten into
// the source schema, and Explain runs on the aligned pair. The schema
// match runs to completion; the aligned search honours ctx.
func (e *Explainer) ExplainRenamed(ctx context.Context, source, target *Table) (*Result, *SchemaMatch, error) {
	m, err := schemamatch.Attributes(source, target)
	if err != nil {
		return nil, nil, err
	}
	aligned, err := m.AlignTarget(source, target)
	if err != nil {
		return nil, nil, err
	}
	res, err := e.Explain(ctx, source, aligned)
	if err != nil {
		return nil, nil, err
	}
	return res, m, nil
}

// ExplainSources streams two snapshots out of their Sources — interning
// every record into one shared per-attribute dictionary set the moment it
// arrives, so neither snapshot is ever materialised as a [][]string and
// the run shares the stored columns instead of translating them — and
// explains the resulting pair. Explanations are byte-identical to Explain
// on the same data; only the interning work differs. The observer (if any)
// sees ingest-progress events per chunk.
func (e *Explainer) ExplainSources(ctx context.Context, source, target Source) (*Result, error) {
	ctx, rec := e.traceRun(ctx)
	// Open both sources and compare schemas BEFORE draining either: a
	// mismatched pair (wrong file, renamed column) fails after two header
	// reads, not after interning gigabytes.
	srcSchema, err := source.Open()
	if err != nil {
		source.Close()
		target.Close()
		return nil, err
	}
	tgtSchema, err := target.Open()
	if err != nil {
		source.Close()
		target.Close()
		return nil, err
	}
	if !srcSchema.Equal(tgtSchema) {
		source.Close()
		target.Close()
		return nil, fmt.Errorf("affidavit: source and target schemas differ: %v vs %v",
			srcSchema.Attrs(), tgtSchema.Attrs())
	}
	shared := make([]*table.Dict, srcSchema.Len())
	for a := range shared {
		shared[a] = table.NewDict()
	}
	src, err := e.drainSource(ctx, source, srcSchema, shared, "source")
	if err != nil {
		target.Close()
		return nil, err
	}
	tgt, err := e.drainSource(ctx, target, tgtSchema, shared, "target")
	if err != nil {
		return nil, err
	}
	inst, err := delta.NewInstanceWithDicts(src, tgt, e.metas, shared)
	if err != nil {
		return nil, err
	}
	res, err := e.explainInstance(ctx, inst)
	if err != nil {
		return nil, err
	}
	return traced(res, rec), nil
}

// ExplainFiles is ExplainSources over two CSV files (header row = schema),
// streamed: neither file is ever buffered whole.
func (e *Explainer) ExplainFiles(ctx context.Context, sourcePath, targetPath string) (*Result, error) {
	return e.ExplainSources(ctx, CSVFileSource(sourcePath), CSVFileSource(targetPath))
}

// ReadSource drains a Source into a Table over private dictionaries — the
// streaming replacement for ReadCSV when the snapshot will be explained
// later. A snapshot bound for a Session is better read with
// Session.ReadSource, which interns it once, into the dictionaries the run
// will use. The observer (if any) sees ingest events labelled "source".
func (e *Explainer) ReadSource(ctx context.Context, src Source) (*Table, error) {
	return e.ReadSourceNamed(ctx, src, "source")
}

// ReadSourceNamed is ReadSource with a caller-chosen snapshot label for
// the observer's ingest events ("source", "target", …), so multi-snapshot
// ingest paths report per-role volumes.
func (e *Explainer) ReadSourceNamed(ctx context.Context, src Source, label string) (*Table, error) {
	return e.readSource(ctx, src, nil, label)
}

// readSource opens and drains src into pool's dictionaries for its schema
// (nil pool = private dictionaries).
func (e *Explainer) readSource(ctx context.Context, src Source, pool *table.DictPool, label string) (*Table, error) {
	schema, err := src.Open()
	if err != nil {
		src.Close()
		return nil, err
	}
	var dicts []*table.Dict
	if pool != nil {
		dicts = pool.DictsFor(schema)
	}
	return e.drainSource(ctx, src, schema, dicts, label)
}

// ingestChunk is how many records are interned between context checks and
// ingest-progress events.
const ingestChunk = 8192

// drainSource interns every remaining record of an already-opened source
// into a table. dicts, when non-nil, is the positional dictionary set the
// snapshot shares with others (its pair, a session pool), so all intern
// into one code space.
func (e *Explainer) drainSource(ctx context.Context, src Source, schema *Schema, dicts []*table.Dict, role string) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := table.NewBuilder(schema, dicts)
	if err != nil {
		src.Close()
		return nil, err
	}
	sink := e.runSink(ctx)
	emit := func(complete bool) {
		if sink != nil {
			sink(Event{Kind: obs.KindIngest, Snapshot: role, Records: b.Len(), Complete: complete})
		}
	}
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			src.Close()
			return nil, err
		}
		if err := b.Append(rec); err != nil {
			src.Close()
			return nil, fmt.Errorf("affidavit: ingesting %s record %d: %w", role, b.Len()+1, err)
		}
		if b.Len()%ingestChunk == 0 {
			emit(false)
			if err := ctx.Err(); err != nil {
				src.Close()
				return nil, err
			}
		}
	}
	if err := src.Close(); err != nil {
		return nil, fmt.Errorf("affidavit: closing %s: %w", role, err)
	}
	emit(true)
	return b.Table(), nil
}

// explainInstance runs the search on a prepared instance, chaining any
// per-run context sink after the configured observer.
func (e *Explainer) explainInstance(ctx context.Context, inst *delta.Instance) (*Result, error) {
	so := e.searchOptions()
	so.OnEvent = obs.Chain(so.OnEvent, obs.FromContext(ctx))
	res, err := search.Run(ctx, inst, so)
	if err != nil {
		return nil, err
	}
	return e.newResult(res), nil
}

// newResult wraps a finished search under the Explainer's α. The trivial
// cost comes from its closed form, not from building E∅.
func (e *Explainer) newResult(res *search.Result) *Result {
	inst := res.Explanation.Inst
	return &Result{
		Explanation: res.Explanation,
		Cost:        res.Cost,
		TrivialCost: delta.CostModel{Alpha: e.so.Alpha}.TrivialCost(inst.NumAttrs(), inst.Target.Len()),
		Stats:       res.Stats,
		alpha:       e.so.Alpha,
	}
}

// traced attaches the recorder's finished trace, if any.
func traced(res *Result, rec *trace.Recorder) *Result {
	if rec != nil {
		res.Trace = rec.Trace()
	}
	return res
}

// Session creates a long-lived session sharing the Explainer's
// configuration and observer. initial, when non-nil, is the chain
// baseline: the first ExplainNextContext call diffs it against its
// argument. A nil initial starts a batch/service session —
// ExplainPairContext, ExplainWarmContext and ExplainBatchContext work
// immediately, while ExplainNextContext errors until a baseline exists
// (ExplainWarmContext sets one).
func (e *Explainer) Session(initial *Table) *Session {
	return &Session{inner: session.New(initial, e.searchOptions(), e.metas), ex: e}
}
