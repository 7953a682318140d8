package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"affidavit/internal/align"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/metafunc"
	"affidavit/internal/obs"
	"affidavit/internal/spill"
)

// StartStrategy selects the set of start states H₀ (Section 4.2).
type StartStrategy int

const (
	// StartOverlap is Hs: one state whose A^id attributes come from
	// overlap-score matching. Falls back to StartEmpty when no overlap
	// pairs survive the block-size threshold.
	StartOverlap StartStrategy = iota
	// StartID is H^id: one state per attribute, assuming that attribute
	// unchanged.
	StartID
	// StartEmpty is H∅: the single all-undecided state.
	StartEmpty
)

func (s StartStrategy) String() string {
	switch s {
	case StartOverlap:
		return "Hs"
	case StartID:
		return "Hid"
	case StartEmpty:
		return "H∅"
	}
	return fmt.Sprintf("StartStrategy(%d)", int(s))
}

// Options configures one Affidavit run. The zero value is *not* usable as a
// whole — call DefaultOptions or fill every field. Run validates and
// rejects out-of-range values instead of silently clamping them; the
// zero-value meaning of each field is documented per field.
type Options struct {
	// Alpha is the cost parameter α of Definition 3.10. Must be in [0, 1];
	// zero is valid and weighs only function complexity. Default 0.5.
	Alpha float64
	// Beta is the branching factor β: attributes polled per expansion and
	// candidates kept per attribute. Must be ≥ 1; zero is invalid.
	// Default 2.
	Beta int
	// QueueWidth is ϱ, the level-bounded queue width. Must be ≥ 1; zero is
	// invalid (a width-0 queue could never hold a state). Default 5.
	QueueWidth int
	// Start selects H₀. The zero value is StartOverlap; DefaultOptions
	// uses StartID.
	Start StartStrategy
	// MaxBlockSize is the overlap-matching threshold used by StartOverlap
	// (pairs per shared value). Default 100000.
	MaxBlockSize int
	// Induce carries θ, ρ and the induction caps.
	Induce induce.Config
	// Seed drives all sampling; equal seeds give equal searches. Zero is a
	// valid seed.
	Seed int64
	// MaxExpansions caps polled states as a safety valve. Must be ≥ 0;
	// 0 means unlimited.
	MaxExpansions int
	// Workers bounds how many extension probes the engine evaluates
	// concurrently (and the partitions of the end-state conversion). Must be ≥ 0; 0 and 1 both mean the
	// sequential engine. For any fixed Seed the parallel and sequential
	// engines return identical Results (same explanation, cost and stats) —
	// probes draw from per-probe deterministic rngs and are merged in
	// deterministic order.
	Workers int
	// Tracer, when non-nil, observes the search (Figure 4 reproductions).
	// Tracer callbacks always fire from the polling goroutine, in
	// deterministic order, regardless of Workers.
	Tracer Tracer
	// OnEvent, when non-nil, receives pipeline events: one search-start
	// event (cold/warm/escalated, start level), one poll event per queue
	// extraction, finalisation and conversion phase markers, and one done
	// event with the final tallies. Events fire from the polling goroutine
	// in deterministic order for a fixed seed, regardless of Workers; a nil
	// sink costs one branch per emission point.
	OnEvent obs.Sink
	// WarmStart, when non-nil, switches Run into incremental mode — the
	// warm-start API for snapshot chains: when diffing snapshot n against
	// n+1, the explanation of (n−1, n) is usually mostly right, so instead
	// of the cold H₀ states the queue is seeded with start states derived
	// from the previous run's function tuple, re-applied to the new pair,
	// re-blocked and re-costed. Must have one entry per attribute; nil
	// entries leave that attribute undecided. Because explicit value
	// mappings are alignment-specific (rewritten keys are re-permuted
	// between every pair), a second warm state with all Mapping entries
	// left undecided is seeded as well, so a stale key mapping never hides
	// the reusable part of the tuple.
	//
	// A recurring transformation pattern is then confirmed in a handful of
	// polls — the warm states start at (or next to) an end state — instead
	// of being re-discovered through the full lattice climb; this is what
	// makes chain runs converge in far fewer expansions. The trade-off is
	// that incremental runs anchor on the previous structure: when the new
	// pair no longer resembles it, the search still extends, finalises and
	// re-optimises from the warm states and always returns a valid
	// explanation, but it may differ from a cold run's. Callers wanting
	// cold-search guarantees leave WarmStart nil. Fixed seeds remain fully
	// deterministic, and the parallel engine remains equivalent to the
	// sequential one.
	WarmStart []metafunc.Func
	// WarmGuard, when > 0, arms the warm-start quality guard: before the
	// warm states are admitted, the full warm state's re-validated cost is
	// compared — as a fraction of this pair's trivial-explanation cost —
	// against the previous run's compression ratio (WarmPrevRatio). If it
	// exceeds WarmGuard × WarmPrevRatio the incremental run would anchor on
	// a stale structure, so the warm states are discarded and the run
	// escalates to a cold search over the configured Start strategy
	// (Stats.WarmEscalated reports the escalation; the escalated run is
	// byte-identical to a cold run with the same seed). Must be ≥ 0; 0
	// disables the guard. Ignored when WarmStart is nil.
	WarmGuard float64
	// WarmPrevRatio is the previous run's cost divided by its pair's
	// trivial-explanation cost — the compression-ratio baseline the guard
	// compares against. Must be ≥ 0. Sessions fill it automatically.
	WarmPrevRatio float64
	// Spill, when active, runs the search under its memory budget: the
	// overlap start strategy's score index and the end-state conversion's
	// multiset matching partition through temp files when their estimates
	// exceed the budget's share (blocking always groups in memory). Explanations are
	// byte-identical to the unbudgeted run for equal seeds; the run's
	// spill totals land in Stats and in one KindSpill event per spilling
	// stage, emitted just before the done event. Nil (or a zero-budget
	// manager) disables spilling.
	Spill *spill.Manager
}

// DefaultOptions returns the paper's H^id evaluation configuration
// (β = 2, ϱ = 5, α = 0.5, θ = 0.1, ρ = 0.95).
func DefaultOptions() Options {
	return Options{
		Alpha:        0.5,
		Beta:         2,
		QueueWidth:   5,
		Start:        StartID,
		MaxBlockSize: 100000,
		Induce:       induce.Defaults,
	}
}

// OverlapOptions returns the paper's Hs evaluation configuration
// (overlap start state, β = 1, ϱ = 1).
func OverlapOptions() Options {
	o := DefaultOptions()
	o.Start = StartOverlap
	o.Beta = 1
	o.QueueWidth = 1
	return o
}

// Validate checks every instance-independent option invariant — the same
// checks Run performs before searching, exposed so front-ends constructing
// options (functional-option builders, flag parsers) can fail fast instead
// of deferring configuration errors to the first explanation.
func (o Options) Validate() error {
	if o.Beta < 1 {
		return fmt.Errorf("search: Beta must be ≥ 1, got %d", o.Beta)
	}
	if o.Alpha < 0 || o.Alpha > 1 {
		return fmt.Errorf("search: Alpha must be in [0,1], got %v", o.Alpha)
	}
	if o.QueueWidth < 1 {
		return fmt.Errorf("search: QueueWidth must be ≥ 1, got %d", o.QueueWidth)
	}
	if o.MaxExpansions < 0 {
		return fmt.Errorf("search: MaxExpansions must be ≥ 0, got %d", o.MaxExpansions)
	}
	if o.Workers < 0 {
		return fmt.Errorf("search: Workers must be ≥ 0, got %d", o.Workers)
	}
	if o.WarmGuard < 0 {
		return fmt.Errorf("search: WarmGuard must be ≥ 0, got %v", o.WarmGuard)
	}
	if o.WarmPrevRatio < 0 {
		return fmt.Errorf("search: WarmPrevRatio must be ≥ 0, got %v", o.WarmPrevRatio)
	}
	// Both boundaries are degenerate but defined (θ ∈ {0,1} collapse the
	// sample sizing, ρ = 1 demands the cap) and ran fine before validation
	// existed, so they stay accepted.
	if o.Induce.Theta < 0 || o.Induce.Theta > 1 {
		return fmt.Errorf("search: Theta must be in [0,1], got %v", o.Induce.Theta)
	}
	if o.Induce.Rho < 0 || o.Induce.Rho > 1 {
		return fmt.Errorf("search: Rho must be in [0,1], got %v", o.Induce.Rho)
	}
	return nil
}

// Stats reports how much work a run performed.
type Stats struct {
	Polls           int           // states extracted from the queue
	StatesGenerated int           // candidate states costed
	Enqueued        int           // states admitted to the queue
	Evicted         int           // admissions that displaced a queued state
	Duration        time.Duration // wall time
	StartLevel      int           // assignments in the chosen start state(s)
	// Cancelled reports that the run's context was cancelled (or its
	// deadline passed) before the search finished. A cancelled run still
	// returns a valid best-so-far explanation instead of an error.
	Cancelled bool
	// WarmEscalated reports that the warm-start quality guard rejected the
	// warm states as stale and the run fell back to a cold search.
	WarmEscalated bool
	// SpilledBytes is the volume this run wrote to spill files under a
	// memory budget (the overlap index plus the conversion's
	// disk-partitioned matching); 0 without a budget.
	SpilledBytes int64
	// SpillPartitions counts the external partitions those spills created.
	SpillPartitions int64
}

// Result is a finished run: the explanation, its cost, and run statistics.
type Result struct {
	Explanation *delta.Explanation
	Cost        float64
	Stats       Stats
}

// Run executes Algorithm 1 on the instance and returns the best explanation
// found. It falls back to the trivial explanation if the search cannot
// produce an end state within MaxExpansions.
//
// Cancellation is cooperative: the poll loop checks ctx once per iteration,
// every probe checks it on entry, and blocking refinements observe it too,
// so a cancelled run returns within about one poll iteration. Rather than
// discarding the climb, a cancelled run salvages its best-so-far work — the
// cheapest polled state is finalised with greedy value mappings and
// converted like an ordinary end state — and returns that explanation with
// Stats.Cancelled set and a nil error. Callers that must distinguish
// complete from interrupted results check Stats.Cancelled.
func Run(ctx context.Context, inst *delta.Instance, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if inst.NumAttrs() == 0 {
		return nil, fmt.Errorf("search: instance has no attributes")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.WarmStart != nil && len(opts.WarmStart) != inst.NumAttrs() {
		return nil, fmt.Errorf("search: WarmStart has %d functions, schema has %d attributes",
			len(opts.WarmStart), inst.NumAttrs())
	}
	start := time.Now() //affidavit:ignore nondet Stats.Duration is a wall-time diagnostic, excluded from coded output and goldens
	e := &engine{
		ctx:   ctx,
		opts:  opts,
		cm:    delta.CostModel{Alpha: opts.Alpha},
		rng:   rand.New(rand.NewSource(opts.Seed)),
		stats: &Stats{},
	}
	if opts.Spill.Active() {
		e.matchSpill = &spill.Stats{}
		e.overlapSpill = &spill.Stats{}
	}
	if opts.Workers > 1 {
		// The polling goroutine participates in probe evaluation, so the
		// semaphore holds Workers−1 extra slots.
		e.sem = make(chan struct{}, opts.Workers-1)
	}
	icfg := opts.Induce
	icfg.Runner = e.runAll
	e.ind = induce.New(inst.Metas, icfg)
	finish := func(expl *delta.Explanation) (*Result, error) {
		if err := expl.Validate(); err != nil {
			return nil, fmt.Errorf("search: produced invalid explanation: %w", err)
		}
		e.stats.Duration = time.Since(start) //affidavit:ignore nondet Stats.Duration is a wall-time diagnostic, excluded from coded output and goldens
		cost := e.cm.Cost(expl)
		// Spill totals are aggregated per run and emitted from the polling
		// goroutine just before the done event: both engines evaluate the
		// same refinements for a fixed seed, so the totals — like every
		// other event — are deterministic regardless of Workers.
		for _, sp := range []struct {
			component string
			st        *spill.Stats
		}{
			{"overlap", e.overlapSpill},
			{"convert", e.matchSpill},
		} {
			if sp.st.Bytes() == 0 && sp.st.Partitions() == 0 {
				continue
			}
			e.stats.SpilledBytes += sp.st.Bytes()
			e.stats.SpillPartitions += sp.st.Partitions()
			e.emit(obs.Event{
				Kind:       obs.KindSpill,
				Component:  sp.component,
				SpillBytes: sp.st.Bytes(),
				SpillParts: sp.st.Partitions(),
			})
		}
		e.emit(obs.Event{
			Kind:      obs.KindDone,
			Polls:     e.stats.Polls,
			States:    e.stats.StatesGenerated,
			Cost:      cost,
			Cancelled: e.stats.Cancelled,
		})
		return &Result{
			Explanation: expl,
			Cost:        cost,
			Stats:       *e.stats,
		}, nil
	}
	if e.done() {
		// Cancelled before any search work: the trivial explanation is the
		// only best-so-far there is. Mode "cancelled" keeps the observer's
		// start/done event pairing intact — every done event has a start.
		e.stats.Cancelled = true
		e.emit(obs.Event{Kind: obs.KindSearchStart, Mode: "cancelled", Start: opts.Start.String()})
		return finish(delta.Trivial(inst))
	}
	root := newRoot(ctx, inst, e.cm)
	q := newQueue(opts.QueueWidth)
	starts := e.warmStates(root)
	mode := "cold"
	if len(starts) > 0 {
		mode = "warm"
	}
	if len(starts) > 0 && opts.WarmGuard > 0 {
		// Warm-start quality guard: the first warm state carries the whole
		// previous tuple, re-blocked and re-costed against this pair. When
		// its cost ratio blows past the previous run's compression ratio the
		// structure no longer transfers — escalate to a cold search.
		trivial := e.cm.TrivialCost(inst.NumAttrs(), inst.Target.Len())
		if trivial > 0 && starts[0].cost > opts.WarmGuard*opts.WarmPrevRatio*trivial {
			e.stats.WarmEscalated = true
			mode = "escalated"
			starts = nil
		}
	}
	if starts == nil {
		starts = e.startStates(inst, root)
	}
	for _, s := range starts {
		e.offer(q, s)
		if s.level > e.stats.StartLevel {
			e.stats.StartLevel = s.level
		}
	}
	e.emit(obs.Event{
		Kind:       obs.KindSearchStart,
		Mode:       mode,
		Start:      opts.Start.String(),
		StartLevel: e.stats.StartLevel,
	})

	var end, best *State
	for q.Len() > 0 {
		if e.done() {
			e.stats.Cancelled = true
			break
		}
		h := q.Poll()
		e.stats.Polls++
		if opts.Tracer != nil {
			opts.Tracer.Polled(h, e.stats.Polls)
		}
		e.emit(obs.Event{
			Kind:  obs.KindPoll,
			Poll:  e.stats.Polls,
			Level: h.level,
			Cost:  h.cost,
			End:   h.IsEnd(),
		})
		if h.IsEnd() {
			end = h
			break
		}
		if best == nil || h.cost < best.cost {
			best = h
		}
		if opts.MaxExpansions > 0 && e.stats.Polls >= opts.MaxExpansions {
			break
		}
		for _, child := range e.extensions(h) {
			e.offer(q, child)
		}
	}
	if e.stats.Cancelled && end == nil && best != nil {
		// Salvage the climb: resolve the cheapest polled state's remaining
		// attributes with greedy maps — about one expansion's worth of work —
		// instead of throwing the partial assignment away.
		end = e.finalize(best)
		e.emit(obs.Event{Kind: obs.KindFinalize, Level: end.level, Cost: end.cost})
	}

	var expl *delta.Explanation
	if end != nil {
		e.emit(obs.Event{Kind: obs.KindConvert})
		tuple := make(delta.FuncTuple, len(end.funcs))
		copy(tuple, end.funcs)
		bctx := ctx
		if e.stats.Cancelled {
			// The run is committed to returning its best-so-far result; the
			// conversion is one bounded pass, so let it complete.
			bctx = context.WithoutCancel(ctx)
		}
		var err error
		expl, err = delta.BuildCtx(bctx, inst, tuple, delta.BuildOptions{
			Workers: opts.Workers, Spill: opts.Spill, SpillStats: e.matchSpill,
		})
		if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
			// The deadline fired inside the conversion itself. The run has
			// already found its end state — the same tuple a slightly
			// earlier cancellation would have converted uncancelled — so
			// finish the one bounded conversion pass and tag the result,
			// rather than downgrading a complete search to the trivial
			// explanation.
			e.stats.Cancelled = true
			expl, err = delta.BuildCtx(context.WithoutCancel(ctx), inst, tuple,
				delta.BuildOptions{Workers: opts.Workers, Spill: opts.Spill, SpillStats: e.matchSpill})
		}
		if err != nil {
			return nil, fmt.Errorf("search: converting end state: %w", err)
		}
	} else {
		expl = delta.Trivial(inst)
	}
	// No result may be worse than the always-available E∅: the first end
	// state the queue reaches, like a salvaged greedy finalisation, can carry
	// mapping parameters that outweigh the insertions they save.
	if e.cm.TrivialCost(inst.NumAttrs(), inst.Target.Len()) < e.cm.Cost(expl) {
		expl = delta.Trivial(inst)
	}
	return finish(expl)
}

// emit forwards an event to the configured sink. Called only from the
// polling goroutine, so event order is deterministic for fixed seeds.
func (e *engine) emit(ev obs.Event) {
	if e.opts.OnEvent != nil {
		e.opts.OnEvent(ev)
	}
}

// offer adds a state to the queue, keeping the admission statistics.
func (e *engine) offer(q *boundedQueue, s *State) {
	admitted, evicted := q.Add(s)
	if admitted {
		e.stats.Enqueued++
	}
	if evicted {
		e.stats.Evicted++
	}
}

// warmStates builds the incremental-mode start states: one state assigning
// every non-nil warm function, and — when the tuple carries explicit value
// mappings — a second state with those mapping attributes left undecided,
// since mappings learned on a previous pair's alignment rarely transfer.
// Returns nil (cold mode) when WarmStart is unset or carries no
// assignments at all.
func (e *engine) warmStates(root *State) []*State {
	if e.opts.WarmStart == nil {
		return nil
	}
	build := func(keepMappings bool) *State {
		var attrs []int
		var fs []metafunc.Func
		for a, f := range e.opts.WarmStart {
			if f == nil {
				continue
			}
			if _, isMap := f.(*metafunc.Mapping); isMap && !keepMappings {
				continue
			}
			attrs = append(attrs, a)
			fs = append(fs, f)
		}
		return root.extendAll(attrs, fs, e.cm)
	}
	full := build(true)
	if full.level == 0 {
		return nil
	}
	noMaps := build(false)
	if noMaps.Key() == full.Key() {
		return []*State{full}
	}
	// noMaps degenerates to the root when every warm function is a mapping;
	// seeding it anyway keeps an escape hatch from a stale all-mapping
	// tuple (the run then behaves like H∅ with a warm incumbent).
	return []*State{full, noMaps}
}

// startStates builds H₀ for the configured strategy (Section 4.2).
func (e *engine) startStates(inst *delta.Instance, root *State) []*State {
	switch e.opts.Start {
	case StartEmpty:
		return []*State{root}
	case StartID:
		// The d identity refinements are independent; evaluate them on the
		// worker pool and keep attribute order for determinism.
		states := make([]*State, inst.NumAttrs())
		e.runAll(len(states), func(a int) {
			states[a] = root.extend(a, metafunc.Identity{}, e.cm)
		})
		return states
	case StartOverlap:
		ov := align.ComputeOverlapSpill(inst, e.opts.MaxBlockSize, e.opts.Spill, e.overlapSpill)
		attrs := ov.StartAttrs(inst)
		fs := make([]metafunc.Func, len(attrs))
		for i := range fs {
			fs[i] = metafunc.Identity{}
		}
		return []*State{root.extendAll(attrs, fs, e.cm)}
	}
	return []*State{root}
}
