// Package obs defines the pipeline event vocabulary shared by every layer
// that reports progress: snapshot ingest, the search loop, end-state
// conversion, and run completion. The public package re-exports these types
// as affidavit.Event; internal layers emit them through a plain function
// sink so the no-op case costs one nil check.
//
// Determinism contract: within one explanation run, events are emitted from
// a single goroutine in a deterministic order for a fixed seed — the
// parallel search engine reports through the polling goroutine exactly like
// the sequential one. Concurrent runs (batches, server traffic) interleave
// their event streams; observers that aggregate across runs must be safe
// for concurrent use.
package obs

import (
	"context"
	"fmt"
)

// Kind discriminates pipeline events.
type Kind uint8

const (
	// KindIngest reports snapshot ingest progress: Snapshot names the role
	// ("source" or "target"), Records is the cumulative record count, and
	// Complete marks the final event of that snapshot.
	KindIngest Kind = iota + 1
	// KindSearchStart fires once per run after the start states are chosen:
	// Mode is "cold", "warm" or "escalated" ("cancelled" when the run's
	// context was already done before any search work), Start names the
	// start strategy, and StartLevel is the deepest seeded start state.
	// Every run emits exactly one, so start counters pair with done
	// counters.
	KindSearchStart
	// KindPoll fires for every state extracted from the queue: Poll is the
	// 1-based extraction index, Level/Cost describe the state, End marks an
	// end state.
	KindPoll
	// KindFinalize fires when a cancelled run salvages its best-so-far
	// state by resolving the remaining attributes with greedy maps.
	KindFinalize
	// KindConvert fires when the chosen end state enters the explanation
	// conversion (delta.Build).
	KindConvert
	// KindDone fires once per run with the final tallies: Polls, States,
	// Cost, and whether the run was Cancelled. Wall time is deliberately
	// absent — event streams are byte-deterministic for fixed seeds.
	KindDone
	// KindSpill reports out-of-core activity under a memory budget:
	// Component names the spilling stage ("overlap" for the
	// disk-partitioned overlap-score index, "convert" for the conversion's
	// disk-partitioned matching), SpillBytes the bytes written to temp
	// files and SpillParts the external partitions created. Spill events
	// fire once per run, aggregated, just before KindDone, so they stay
	// deterministic for fixed seeds regardless of Workers.
	KindSpill
)

// String returns the kind's stable name.
func (k Kind) String() string {
	switch k {
	case KindIngest:
		return "ingest"
	case KindSearchStart:
		return "search-start"
	case KindPoll:
		return "poll"
	case KindFinalize:
		return "finalize"
	case KindConvert:
		return "convert"
	case KindDone:
		return "done"
	case KindSpill:
		return "spill"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one pipeline event. Only the fields documented for the Kind are
// meaningful; the rest are zero.
type Event struct {
	Kind Kind

	// KindIngest.
	Snapshot string // "source" | "target"
	Records  int    // cumulative records ingested
	Complete bool   // final event for this snapshot

	// KindSearchStart.
	Mode       string // "cold" | "warm" | "escalated" | "cancelled"
	Start      string // start strategy (Hs, Hid, H∅)
	StartLevel int    // assignments in the deepest start state

	// KindPoll (Level and Cost also describe KindFinalize's result).
	Poll  int     // 1-based extraction index
	Level int     // decided attributes of the state
	Cost  float64 // state cost (KindPoll/KindFinalize), final cost (KindDone)
	End   bool    // the polled state is an end state

	// KindDone.
	Polls     int  // states extracted from the queue
	States    int  // candidate states costed
	Cancelled bool // the run's context was cancelled

	// KindSpill.
	Component  string // "overlap" | "convert"
	SpillBytes int64  // bytes written to spill files
	SpillParts int64  // external partitions created
}

// Sink receives events. A nil Sink is the no-op observer; emitters check
// for nil before constructing events, so an unobserved pipeline pays one
// branch per emission point.
type Sink func(Event)

// Chain composes two sinks in order, treating nil as absent: the result is
// nil when both are, and the single non-nil sink when only one is — so the
// common unobserved path stays a plain nil check, never a wrapper call.
func Chain(a, b Sink) Sink {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return func(ev Event) {
		a(ev)
		b(ev)
	}
}

// sinkKey carries a per-run Sink through a context.
type sinkKey struct{}

// ContextWithSink attaches a per-run event sink to ctx: every emission
// point that serves the run (ingest drains, the search loop) forwards its
// events to s in addition to any configured observer. A sink already on
// ctx is chained before s, so nested attachments compose. This is how a
// per-request trace recorder follows one run through separate ingest and
// explain calls without touching the long-lived Explainer configuration.
func ContextWithSink(ctx context.Context, s Sink) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, sinkKey{}, Chain(FromContext(ctx), s))
}

// FromContext returns the sink attached by ContextWithSink, or nil.
func FromContext(ctx context.Context) Sink {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(sinkKey{}).(Sink)
	return s
}
