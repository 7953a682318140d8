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
	"affidavit/internal/search"
	"affidavit/internal/table"
)

// Explainer is the long-lived front door of the package: one fully-resolved
// configuration shared by every explanation it runs, built once from
// functional options and validated eagerly. Every With option sets exactly
// the value it names — there is no "zero means default" — so α = 0 and
// θ = 0 are expressible.
//
//	ex, err := affidavit.New(
//	    affidavit.WithAlpha(0.3),
//	    affidavit.WithSeed(7),
//	)
//	res, err := ex.Explain(affidavit.ContextWithObserver(ctx, metrics), src, tgt)
//
// Explainers are immutable after New and safe for concurrent use; every
// run copies the configuration. Sessions created via Session share the
// Explainer's configuration. Observers are not configuration: they ride
// each run's context (ContextWithObserver).
type Explainer struct {
	so    search.Options
	metas []metafunc.Meta
}

// Option configures an Explainer. Options apply in order; later options
// override earlier ones. Validation happens once, in New.
type Option func(*Explainer)

// New builds an Explainer from the paper's default configuration (Hid
// start, β = 2, ϱ = 5, α = 0.5, θ = 0.1, ρ = 0.95) with
// the given options applied, and validates the result eagerly — a
// misconfigured Explainer fails here, not on its first explanation.
func New(opts ...Option) (*Explainer, error) {
	e := &Explainer{so: search.DefaultOptions(), metas: metafunc.DefaultMetas()}
	for _, opt := range opts {
		opt(e)
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

// WithWorkers does nothing: every search runs on one core, and
// parallelism lives across runs (concurrent Session.ExplainPairContext
// calls, affidavitd's job pool). It stays only for the frozen service
// benchmark (bench/probes.go), which calls it.
func WithWorkers(n int) Option { return func(*Explainer) {} }

// WithWarmGuard arms the warm-start quality guard used by session warm
// paths (ExplainNextContext, ExplainWarmContext): when the previous
// explanation, re-validated against the new pair, costs more than g × the
// previous run's compression ratio, the run escalates to a cold search
// instead of anchoring on the stale structure (Stats.WarmEscalated reports
// it). 0 disables the guard.
func WithWarmGuard(g float64) Option { return func(e *Explainer) { e.so.WarmGuard = g } }

// WithMemBudget does nothing: no stage spills to disk, and every stage's
// memory is linear in the snapshots. It stays only for the frozen service
// benchmark (bench/probes.go), which calls it.
func WithMemBudget(n int64) Option { return func(*Explainer) {} }

// WithExtraMetas extends the built-in meta-function library with
// domain-specific families.
func WithExtraMetas(metas ...Meta) Option {
	return func(e *Explainer) { e.metas = append(e.metas, metas...) }
}

// Fingerprint digests every result-affecting engine option — α, β, the
// queue width ϱ, the start strategy, the overlap block threshold, the
// induction configuration (θ, ρ and its caps) and the sampling seed —
// plus the installed meta-function families, into a 16-hex-character
// identity. Two Explainers with equal fingerprints produce byte-identical
// explanations for identical inputs; byte-neutral knobs (warm-only guards)
// are deliberately excluded. affidavitd folds the fingerprint into the job
// content address, so a configuration change stops serving results
// computed under the old flags.
//
// The digest still reads "maxexp=0": the search-expansion cap it named is
// no longer configurable, and keeping its last value in the input keeps
// every fingerprint, and so every job address a durable journal already
// holds, unchanged.
func (e *Explainer) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "alpha=%g beta=%d width=%d start=%d maxblock=%d theta=%g conf=%g mingen=%d maxranked=%d maxsrc=%d seed=%d maxexp=0",
		e.so.Alpha, e.so.Beta, e.so.QueueWidth, e.so.Start, e.so.MaxBlockSize,
		e.so.Induce.Theta, e.so.Induce.Rho, e.so.Induce.MinGenerated,
		e.so.Induce.MaxRanked, e.so.Induce.MaxSourceValuesPerBlock,
		e.so.Seed)
	for _, m := range e.metas {
		fmt.Fprintf(h, " meta=%s", m.Name())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Explain explains the difference between two in-memory snapshots sharing
// a schema. The search, its blocking refinements and the end-state
// conversion all observe ctx's cancellation and deadlines cooperatively.
// An interrupted run is not an error — it returns the best explanation
// found so far (always valid) with Stats.Cancelled set, so callers on a
// deadline keep the partial work and can distinguish complete from
// interrupted results.
func (e *Explainer) Explain(ctx context.Context, source, target *Table) (*Result, error) {
	inst, err := delta.NewInstance(source, target, e.metas)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, inst, e.so)
}

// ExplainSources streams two snapshots out of their Sources — interning
// every record into one shared per-attribute dictionary set the moment it
// arrives, so neither snapshot is ever materialised as a [][]string and
// the run shares the stored columns instead of translating them — and
// explains the resulting pair. Explanations are byte-identical to Explain
// on the same data; only the interning work differs. Observers on ctx see
// ingest-progress events per chunk.
func (e *Explainer) ExplainSources(ctx context.Context, source, target Source) (*Result, error) {
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
	src, err := drainSource(ctx, source, srcSchema, shared, "source")
	if err != nil {
		target.Close()
		return nil, err
	}
	tgt, err := drainSource(ctx, target, tgtSchema, shared, "target")
	if err != nil {
		return nil, err
	}
	inst, err := delta.NewInstanceWithDicts(src, tgt, e.metas, shared)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, inst, e.so)
}

// ExplainFiles is ExplainSources over two CSV files (header row = schema),
// streamed: neither file is ever buffered whole.
func (e *Explainer) ExplainFiles(ctx context.Context, sourcePath, targetPath string) (*Result, error) {
	return e.ExplainSources(ctx, csvFileSource(sourcePath), csvFileSource(targetPath))
}

// ReadSource drains a Source into a Table over private dictionaries: read
// CSV with ReadSource(ctx, NewCSVSource(r)) when the snapshot will be
// explained later. A snapshot bound for a Session is better read with
// Session.ReadSource, which interns it once, into the dictionaries the run
// will use. Observers on ctx see ingest events labelled "source".
func (e *Explainer) ReadSource(ctx context.Context, src Source) (*Table, error) {
	return e.ReadSourceNamed(ctx, src, "source")
}

// ReadSourceNamed is ReadSource with a caller-chosen snapshot label for
// the ingest events ("source", "target", …), so multi-snapshot
// ingest paths report per-role volumes.
func (e *Explainer) ReadSourceNamed(ctx context.Context, src Source, label string) (*Table, error) {
	return readSource(ctx, src, nil, label)
}

// readSource opens and drains src into pool's dictionaries for its schema
// (nil pool = private dictionaries).
func readSource(ctx context.Context, src Source, pool *table.DictPool, label string) (*Table, error) {
	schema, err := src.Open()
	if err != nil {
		src.Close()
		return nil, err
	}
	var dicts []*table.Dict
	if pool != nil {
		dicts = pool.DictsFor(schema)
	}
	return drainSource(ctx, src, schema, dicts, label)
}

// ingestChunk is how many records are interned between context checks and
// ingest-progress events.
const ingestChunk = 8192

// drainSource interns every remaining record of an already-opened source
// into a table. dicts, when non-nil, is the positional dictionary set the
// snapshot shares with others (its pair, a session pool), so all intern
// into one code space. A source that is a table.Feeder (CSV) appends its
// rows to the builder itself; any other yields Records through Next.
func drainSource(ctx context.Context, src Source, schema *Schema, dicts []*table.Dict, role string) (*Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, err := table.NewBuilder(schema, dicts)
	if err != nil {
		src.Close()
		return nil, err
	}
	sink := obs.FromContext(ctx)
	emit := func(complete bool) {
		if sink != nil {
			sink(obs.Event{Kind: obs.KindIngest, Snapshot: role, Records: b.Len(), Complete: complete})
		}
	}
	next := func() error {
		rec, err := src.Next()
		if err != nil {
			return err
		}
		if err := b.Append(rec); err != nil {
			return fmt.Errorf("affidavit: ingesting %s record %d: %w", role, b.Len()+1, err)
		}
		return nil
	}
	if f, ok := src.(table.Feeder); ok {
		next = func() error { return f.Feed(b) }
	}
	for {
		err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			src.Close()
			return nil, err
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

// run searches a prepared instance under so and wraps the result under
// the Explainer's α. The trivial cost comes from its closed form, not from
// building E∅.
func (e *Explainer) run(ctx context.Context, inst *delta.Instance, so search.Options) (*Result, error) {
	res, err := search.Run(ctx, inst, so)
	if err != nil {
		return nil, err
	}
	return &Result{
		Explanation: res.Explanation,
		Cost:        res.Cost,
		TrivialCost: delta.CostModel{Alpha: e.so.Alpha}.TrivialCost(inst.NumAttrs(), inst.Target.Len()),
		Stats:       res.Stats,
		alpha:       e.so.Alpha,
	}, nil
}
