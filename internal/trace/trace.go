// Package trace folds one explanation run's Observer event stream into a
// structured RunTrace: per-stage wall-time spans (ingest source/target,
// search, finalize, convert), a poll-trajectory summary with a bounded
// cost-curve sample, and the warm/cold/escalated start decision. It is the
// per-run answer to "why was this upload slow" that the process-wide
// /metrics counters cannot give.
//
// Determinism contract: the Recorder is a pure consumer. It never feeds
// anything back into the pipeline, so enabling tracing leaves the event
// stream — and every coded output derived from it — byte-identical.
// Wall-clock timestamps are captured out-of-band inside the recorder when
// each event arrives (the events themselves carry no time, exactly like
// search.Stats.Duration lives outside the deterministic JSON stats), which
// is why this package may read the clock at all; the nondet analyzer
// justification on the clock site records that bargain.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"affidavit/internal/obs"
)

// DefaultCurveCap bounds the poll cost-curve sample a Recorder keeps. When
// a run polls more states than the cap, the curve is thinned to every 2nd,
// 4th, … point; the first, last and cheapest polls are always retained.
const DefaultCurveCap = 64

// Span is one pipeline stage's wall-time extent, relative to the trace
// start. Stage timings are as observed at the recorder: a stage's span
// runs from the end of the previous stage (the first stage: from the
// recorder's creation) to the stage's own final event, so chunk-granular
// stages (ingest) are accurate to one event interval.
type Span struct {
	// Stage names the pipeline stage: "ingest:source", "ingest:target",
	// "search", "finalize", "convert".
	Stage string `json:"stage"`
	// StartMS is the span's offset from the trace start, in milliseconds.
	StartMS float64 `json:"start_ms"`
	// DurationMS is the span's wall-time extent, in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// Records is the ingested record count (ingest spans only).
	Records int `json:"records,omitempty"`
}

// CurvePoint is one retained sample of the poll cost trajectory.
type CurvePoint struct {
	Poll  int     `json:"poll"`
	Level int     `json:"level"`
	Cost  float64 `json:"cost"`
	End   bool    `json:"end,omitempty"`
}

// PollSummary aggregates the run's queue-poll trajectory — the anytime
// search's cost curve, bounded to a fixed sample size.
type PollSummary struct {
	// Polls is the number of states extracted from the queue.
	Polls int `json:"polls"`
	// EndStates counts polled end states.
	EndStates int `json:"end_states"`
	// FirstCost/LastCost/MinCost summarise the trajectory even when the
	// curve sample dropped the corresponding points.
	FirstCost float64 `json:"first_cost"`
	LastCost  float64 `json:"last_cost"`
	MinCost   float64 `json:"min_cost"`
	// Curve is the retained cost-curve sample: at most the recorder's cap,
	// thinned by stride doubling, with the first, last and cheapest polls
	// always present. Sorted by poll index.
	Curve []CurvePoint `json:"curve,omitempty"`
	// CurveStride is the thinning stride of the final curve (1 = every
	// poll retained).
	CurveStride int `json:"curve_stride,omitempty"`
}

// RunTrace is one explanation run's structured trace.
type RunTrace struct {
	// ID identifies the trace (NewID, or a caller-chosen string).
	ID string `json:"id"`
	// Label is a caller-chosen tag: affidavitd stores the table name, the
	// CLIs the snapshot file pair.
	Label string `json:"label,omitempty"`
	// JobID joins the trace to the async job that ran it, when affidavitd
	// executed the run through its job queue.
	JobID string `json:"job_id,omitempty"`
	// SnapshotID/ParentID carry catalog lineage when the run was a
	// snapshot-catalog chain step: the pushed snapshot being explained and
	// its chain parent.
	SnapshotID string `json:"snapshot_id,omitempty"`
	ParentID   string `json:"parent_id,omitempty"`
	// StartedAt is the wall-clock time the recorder was created.
	StartedAt time.Time `json:"started_at"`
	// DurationMS is the wall time from StartedAt to the done event.
	DurationMS float64 `json:"duration_ms"`
	// Mode is the start decision: "cold", "warm", "escalated" or
	// "cancelled" (context already done before any search work).
	Mode string `json:"mode,omitempty"`
	// Start names the start strategy (Hid, Hs, H∅).
	Start string `json:"start,omitempty"`
	// StartLevel is the deepest seeded start state's assignment count.
	StartLevel int `json:"start_level"`
	// Cancelled reports the run's context was cancelled mid-search.
	Cancelled bool `json:"cancelled,omitempty"`
	// Finalized reports the cancelled run salvaged its best-so-far state.
	Finalized bool `json:"finalized,omitempty"`
	// Complete reports the done event was observed — partial traces (run
	// still in flight, or stream cut) stay marked incomplete.
	Complete bool `json:"complete"`
	// Cost is the final explanation cost; States the candidate states
	// costed (both from the done event).
	Cost   float64 `json:"cost"`
	States int     `json:"states"`
	// Spans are the stage spans in pipeline order.
	Spans []Span `json:"spans"`
	// Polls summarises the poll trajectory.
	Polls PollSummary `json:"polls"`
}

// SpanFor returns the named stage's span, or nil.
func (t *RunTrace) SpanFor(stage string) *Span {
	for i := range t.Spans {
		if t.Spans[i].Stage == stage {
			return &t.Spans[i]
		}
	}
	return nil
}

// IngestDurationMS is the total wall time of the trace's ingest spans,
// whatever their snapshot role: a pair's source and target, or a catalog
// push's snapshot.
func (t *RunTrace) IngestDurationMS() float64 {
	var ms float64
	for _, sp := range t.Spans {
		if strings.HasPrefix(sp.Stage, "ingest:") {
			ms += sp.DurationMS
		}
	}
	return ms
}

// seq disambiguates NewID values if the random source ever fails.
var seq atomic.Uint64

// NewID returns a fresh 16-hex-char trace id. IDs are random, not
// derived from run inputs: traces are operational metadata, outside the
// determinism contract.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%012x", seq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// Recorder folds one run's event stream into a RunTrace. It implements the
// affidavit Observer shape (Observe(obs.Event)) and is attached per run —
// one recorder must not watch two interleaved runs (their spans would
// cross); concurrent runs each get their own. Observe and Trace may be
// called from different goroutines; a mutex keeps partial reads coherent.
//
// The zero Recorder is not usable; construct with NewRecorder.
type Recorder struct {
	mu sync.Mutex
	t  RunTrace

	clock     func() time.Time
	curveCap  int
	start     time.Time // the recorder's creation time
	stageAt   time.Time // current stage's start
	openStage string    // stage started but not yet closed ("search", …)
	// curve thinning state: points at stride intervals, plus the min and
	// latest points merged in on read.
	stride int
	minPt  CurvePoint
	lastPt CurvePoint
}

// NewRecorder returns a recorder for one run, tracing under the given id
// (usually NewID()). Its clock starts now: create it when the run begins,
// so a first stage that emits its only event at completion (a small
// snapshot's ingest) is timed from the start, not from that event.
func NewRecorder(id string) *Recorder {
	r := &Recorder{
		t:        RunTrace{ID: id},
		curveCap: DefaultCurveCap,
		stride:   1,
	}
	r.restart()
	return r
}

// restart stamps the trace start, and the first stage's start, from the
// recorder's clock.
func (r *Recorder) restart() {
	r.start = r.now()
	r.stageAt = r.start
	r.t.StartedAt = r.start
}

// SetLabel tags the trace (table name, file pair). Safe before or during
// the run.
func (r *Recorder) SetLabel(label string) {
	r.mu.Lock()
	r.t.Label = label
	r.mu.Unlock()
}

// SetJobID joins the trace to a job id. Safe before or during the run.
func (r *Recorder) SetJobID(id string) {
	r.mu.Lock()
	r.t.JobID = id
	r.mu.Unlock()
}

// SetLineage joins the trace to its catalog lineage (the explained
// snapshot and its chain parent). Safe before or during the run.
func (r *Recorder) SetLineage(snapshotID, parentID string) {
	r.mu.Lock()
	r.t.SnapshotID = snapshotID
	r.t.ParentID = parentID
	r.mu.Unlock()
}

// SetCurveCap bounds the retained cost-curve sample (minimum 4; the
// default is DefaultCurveCap). Call before the run starts.
func (r *Recorder) SetCurveCap(n int) {
	if n < 4 {
		n = 4
	}
	r.mu.Lock()
	r.curveCap = n
	r.mu.Unlock()
}

// setClock injects a fake clock for tests and restamps the start from it.
func (r *Recorder) setClock(clock func() time.Time) {
	r.mu.Lock()
	r.clock = clock
	r.restart()
	r.mu.Unlock()
}

// now reads the recorder's out-of-band wall clock. Timestamps captured
// here live only in the RunTrace — never in the event stream, Result.JSON
// or any coded output — mirroring Stats.Duration's bargain.
func (r *Recorder) now() time.Time {
	if r.clock != nil {
		return r.clock()
	}
	return time.Now() //affidavit:ignore nondet trace wall times are out-of-band diagnostics, never part of the event stream or coded output
}

// Observe implements the Observer contract: it folds one event into the
// trace. Events within a run arrive from a single goroutine in
// deterministic order; the recorder only attaches wall times to them.
func (r *Recorder) Observe(ev obs.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	switch ev.Kind {
	case obs.KindIngest:
		if ev.Complete {
			r.closeStage("ingest:"+ev.Snapshot, now, ev.Records)
		}
	case obs.KindSearchStart:
		// Ingest (if any) is over; the search stage begins here.
		r.stageAt = now
		r.openStage = "search"
		r.t.Mode = ev.Mode
		r.t.Start = ev.Start
		r.t.StartLevel = ev.StartLevel
	case obs.KindPoll:
		r.recordPoll(ev)
	case obs.KindFinalize:
		r.closeStage(r.openStage, now, 0)
		r.openStage = "finalize"
		r.t.Finalized = true
	case obs.KindConvert:
		r.closeStage(r.openStage, now, 0)
		r.openStage = "convert"
	case obs.KindDone:
		// Close whatever stage is open — "convert" on the full pipeline,
		// "search" when the run ended without an end state (cancelled
		// before any work, or a queue that emptied first).
		r.closeStage(r.openStage, now, 0)
		r.openStage = ""
		r.t.Cancelled = ev.Cancelled
		r.t.Cost = ev.Cost
		r.t.States = ev.States
		r.t.Polls.Polls = ev.Polls
		r.t.DurationMS = ms(now.Sub(r.start))
		r.t.Complete = true
	}
}

// closeStage appends a span ending now and advances the stage cursor. An
// empty stage (nothing open) only advances the cursor.
func (r *Recorder) closeStage(stage string, now time.Time, records int) {
	if stage == "" {
		r.stageAt = now
		return
	}
	r.t.Spans = append(r.t.Spans, Span{
		Stage:      stage,
		StartMS:    ms(r.stageAt.Sub(r.start)),
		DurationMS: ms(now.Sub(r.stageAt)),
		Records:    records,
	})
	r.stageAt = now
}

// recordPoll folds one poll event into the bounded cost curve.
func (r *Recorder) recordPoll(ev obs.Event) {
	p := &r.t.Polls
	pt := CurvePoint{Poll: ev.Poll, Level: ev.Level, Cost: ev.Cost, End: ev.End}
	if ev.End {
		p.EndStates++
	}
	if r.lastPt.Poll == 0 { // first observed poll
		p.FirstCost = pt.Cost
	}
	if r.minPt.Poll == 0 || pt.Cost < p.MinCost {
		p.MinCost = pt.Cost
		r.minPt = pt
	}
	p.LastCost = pt.Cost
	r.lastPt = pt
	// Retain points at stride intervals; when the sample fills, thin it to
	// every second point and double the stride. Poll 1 is on every stride.
	if (ev.Poll-1)%r.stride == 0 {
		p.Curve = append(p.Curve, pt)
		if len(p.Curve) >= r.curveCap {
			kept := p.Curve[:0]
			for i, c := range p.Curve {
				if i%2 == 0 {
					kept = append(kept, c)
				}
			}
			p.Curve = kept
			r.stride *= 2
		}
	}
}

// Trace returns a snapshot of the trace so far. The returned value is a
// deep-enough copy: mutating it (or recording further events) does not
// affect the other side. Call after the run for the complete trace
// (Complete reports whether the done event arrived).
func (r *Recorder) Trace() *RunTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.t
	out.Spans = append([]Span(nil), r.t.Spans...)
	out.Polls.Curve = mergeCurve(r.t.Polls.Curve, r.minPt, r.lastPt)
	out.Polls.CurveStride = r.stride
	return &out
}

// mergeCurve copies the thinned curve, splicing in the cheapest and final
// points if thinning dropped them.
func mergeCurve(curve []CurvePoint, minPt, lastPt CurvePoint) []CurvePoint {
	out := append([]CurvePoint(nil), curve...)
	for _, extra := range []CurvePoint{minPt, lastPt} {
		if extra.Poll == 0 {
			continue // no polls recorded
		}
		pos := len(out)
		dup := false
		for i, c := range out {
			if c.Poll == extra.Poll {
				dup = true
				break
			}
			if c.Poll > extra.Poll {
				pos = i
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, CurvePoint{})
		copy(out[pos+1:], out[pos:])
		out[pos] = extra
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// Collector watches a sequential stream of runs (an eval sweep, a chain)
// and emits one completed RunTrace per run: a fresh recorder is created at
// each run's first event and is flushed to the sink at its done event. The
// stream must not interleave concurrent runs — use one recorder (or
// collector) per run for that.
type Collector struct {
	mu      sync.Mutex
	onTrace func(*RunTrace)
	current *Recorder
	label   string
}

// NewCollector returns a collector flushing each completed trace to
// onTrace (called synchronously from Observe, so keep it cheap).
func NewCollector(onTrace func(*RunTrace)) *Collector {
	return &Collector{onTrace: onTrace}
}

// SetLabel tags every subsequent trace.
func (c *Collector) SetLabel(label string) {
	c.mu.Lock()
	c.label = label
	c.mu.Unlock()
}

// Observe implements the Observer contract over run boundaries.
func (c *Collector) Observe(ev obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		c.current = NewRecorder(NewID())
		if c.label != "" {
			c.current.SetLabel(c.label)
		}
	}
	c.current.Observe(ev)
	if ev.Kind == obs.KindDone {
		tr := c.current.Trace()
		c.current = nil
		if c.onTrace != nil {
			c.onTrace(tr)
		}
	}
}
