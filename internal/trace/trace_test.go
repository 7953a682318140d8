package trace

import (
	"encoding/json"
	"testing"
	"time"

	"affidavit/internal/obs"
)

// fakeClock advances a fixed step per reading, so span math is exact.
type fakeClock struct {
	t    time.Time
	step time.Duration
}

func (c *fakeClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// fullRun replays a representative event stream: two-snapshot ingest, a
// warm search with a few polls, conversion, done.
func fullRun(r *Recorder) {
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "source", Records: 8192})
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "source", Records: 10000, Complete: true})
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "target", Records: 9000, Complete: true})
	r.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "warm", Start: "Hid", StartLevel: 3})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 1, Level: 3, Cost: 90})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 2, Level: 4, Cost: 70})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 3, Level: 5, Cost: 75})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 4, Level: 6, Cost: 60, End: true})
	r.Observe(obs.Event{Kind: obs.KindConvert})
	r.Observe(obs.Event{Kind: obs.KindDone, Polls: 4, States: 40, Cost: 60})
}

func TestRecorderFullRun(t *testing.T) {
	r := NewRecorder("t1")
	r.SetLabel("accounts")
	clock := &fakeClock{t: time.Unix(1000, 0), step: 10 * time.Millisecond}
	r.setClock(clock.now)
	fullRun(r)
	tr := r.Trace()

	if !tr.Complete {
		t.Fatal("trace not complete after done event")
	}
	if tr.ID != "t1" || tr.Label != "accounts" {
		t.Errorf("id/label = %q/%q", tr.ID, tr.Label)
	}
	if tr.Mode != "warm" || tr.Start != "Hid" || tr.StartLevel != 3 {
		t.Errorf("start decision = %q/%q/%d", tr.Mode, tr.Start, tr.StartLevel)
	}
	if tr.Cost != 60 || tr.States != 40 {
		t.Errorf("cost/states = %g/%d", tr.Cost, tr.States)
	}

	// Spans: ingest:source, ingest:target, search, convert — in order.
	var stages []string
	for _, sp := range tr.Spans {
		stages = append(stages, sp.Stage)
	}
	want := []string{"ingest:source", "ingest:target", "search", "convert"}
	if len(stages) != len(want) {
		t.Fatalf("spans = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("spans = %v, want %v", stages, want)
		}
	}
	if sp := tr.SpanFor("ingest:source"); sp.Records != 10000 {
		t.Errorf("source ingest records = %d", sp.Records)
	}
	// Each clock reading advances the fake clock 10ms; the first reading
	// (t0) stamps the start when the clock is injected, so the source
	// ingest span covers its two events (20ms). Every span must be
	// non-negative and the total must cover the stream.
	for _, sp := range tr.Spans {
		if sp.DurationMS < 0 || sp.StartMS < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	if tr.DurationMS != 100 { // start stamps t0, 10 events, last is t0+100ms
		t.Errorf("duration = %gms, want 100ms", tr.DurationMS)
	}
	if tr.IngestDurationMS() != 30 { // source 20 (timed from the start), target 10
		t.Errorf("ingest duration = %gms, want 30ms", tr.IngestDurationMS())
	}

	// Poll summary.
	p := tr.Polls
	if p.Polls != 4 || p.EndStates != 1 {
		t.Errorf("polls/ends = %d/%d", p.Polls, p.EndStates)
	}
	if p.FirstCost != 90 || p.MinCost != 60 || p.LastCost != 60 {
		t.Errorf("first/min/last = %g/%g/%g", p.FirstCost, p.MinCost, p.LastCost)
	}
	if len(p.Curve) != 4 || p.CurveStride != 1 {
		t.Errorf("curve = %+v stride %d", p.Curve, p.CurveStride)
	}
}

// TestRecorderCurveCap: a long poll trajectory is thinned under the cap
// with first, cheapest and last polls retained.
// TestIngestDurationCountsSnapshot: a catalog push ingests one
// "snapshot" and no source or target; its ingest span still counts.
func TestIngestDurationCountsSnapshot(t *testing.T) {
	r := NewRecorder("push")
	clock := &fakeClock{t: time.Unix(1000, 0), step: 10 * time.Millisecond}
	r.setClock(clock.now)
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "snapshot", Records: 8192})
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "snapshot", Records: 9000, Complete: true})
	r.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "warm", Start: "Hid", StartLevel: 3})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 1, Level: 3, Cost: 90, End: true})
	r.Observe(obs.Event{Kind: obs.KindConvert})
	r.Observe(obs.Event{Kind: obs.KindDone, Polls: 1, States: 4, Cost: 90})
	tr := r.Trace()
	sp := tr.SpanFor("ingest:snapshot")
	if sp == nil || sp.Records != 9000 {
		t.Fatalf("snapshot ingest span = %+v", sp)
	}
	if got := tr.IngestDurationMS(); got != sp.DurationMS || got != 20 { // two events, timed from the start
		t.Errorf("ingest duration = %gms, want the snapshot span's 20ms (span %gms)", got, sp.DurationMS)
	}
}

func TestRecorderCurveCap(t *testing.T) {
	r := NewRecorder("t2")
	r.SetCurveCap(8)
	r.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "cold", Start: "Hid"})
	const n = 1000
	minPoll := 637 // arbitrary off-stride minimum
	for i := 1; i <= n; i++ {
		cost := 1000 - float64(i)
		if i == minPoll {
			cost = 1 // global minimum
		} else if i > minPoll {
			cost = 1000 - float64(i) + 500 // keep later polls above the min
		}
		r.Observe(obs.Event{Kind: obs.KindPoll, Poll: i, Level: i, Cost: cost})
	}
	r.Observe(obs.Event{Kind: obs.KindDone, Polls: n, States: n})
	tr := r.Trace()
	p := tr.Polls

	if len(p.Curve) > 8+2 {
		t.Errorf("curve has %d points, cap 8 (+min/last)", len(p.Curve))
	}
	if p.MinCost != 1 || p.FirstCost != 999 {
		t.Errorf("min/first = %g/%g", p.MinCost, p.FirstCost)
	}
	// First, min and last polls present; curve sorted by poll.
	seen := map[int]bool{}
	lastPoll := 0
	for _, c := range p.Curve {
		if c.Poll <= lastPoll {
			t.Fatalf("curve not sorted: %+v", p.Curve)
		}
		lastPoll = c.Poll
		seen[c.Poll] = true
	}
	for _, want := range []int{1, minPoll, n} {
		if !seen[want] {
			t.Errorf("curve dropped poll %d: %+v", want, p.Curve)
		}
	}
}

// TestRecorderPartial: reading a trace mid-run yields a coherent,
// incomplete snapshot that later events do not mutate.
func TestRecorderPartial(t *testing.T) {
	r := NewRecorder("t3")
	r.Observe(obs.Event{Kind: obs.KindIngest, Snapshot: "source", Records: 5, Complete: true})
	r.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "cold", Start: "Hid"})
	r.Observe(obs.Event{Kind: obs.KindPoll, Poll: 1, Level: 1, Cost: 10})
	partial := r.Trace()
	if partial.Complete {
		t.Error("partial trace marked complete")
	}
	if len(partial.Spans) != 1 || partial.Spans[0].Stage != "ingest:source" {
		t.Errorf("partial spans = %+v", partial.Spans)
	}
	r.Observe(obs.Event{Kind: obs.KindConvert})
	r.Observe(obs.Event{Kind: obs.KindDone, Polls: 1, States: 3, Cost: 10})
	if partial.Complete || len(partial.Spans) != 1 {
		t.Error("snapshot mutated by later events")
	}
	full := r.Trace()
	if !full.Complete || len(full.Spans) != 3 {
		t.Errorf("final trace = %+v", full)
	}
}

// TestRecorderDegenerateRuns: streams that skip stages (cancelled before
// any search work, no conversion) still produce sane traces.
func TestRecorderDegenerateRuns(t *testing.T) {
	r := NewRecorder("t4")
	r.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "cancelled", Start: "Hid"})
	r.Observe(obs.Event{Kind: obs.KindDone, Cancelled: true})
	tr := r.Trace()
	if !tr.Complete || !tr.Cancelled {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Stage != "search" {
		t.Errorf("spans = %+v, want lone search span", tr.Spans)
	}
	if len(tr.Polls.Curve) != 0 {
		t.Errorf("curve for poll-less run: %+v", tr.Polls.Curve)
	}
}

// TestCollector: a sequential multi-run stream yields one complete trace
// per run with fresh IDs.
func TestCollector(t *testing.T) {
	var got []*RunTrace
	c := NewCollector(func(tr *RunTrace) { got = append(got, tr) })
	c.SetLabel("sweep")
	for i := 0; i < 3; i++ {
		c.Observe(obs.Event{Kind: obs.KindSearchStart, Mode: "cold", Start: "Hid"})
		c.Observe(obs.Event{Kind: obs.KindPoll, Poll: 1, Level: 1, Cost: 5})
		c.Observe(obs.Event{Kind: obs.KindConvert})
		c.Observe(obs.Event{Kind: obs.KindDone, Polls: 1, States: 2, Cost: 5})
	}
	if len(got) != 3 {
		t.Fatalf("collected %d traces, want 3", len(got))
	}
	ids := map[string]bool{}
	for _, tr := range got {
		if !tr.Complete || tr.Label != "sweep" || tr.Polls.Polls != 1 {
			t.Errorf("trace = %+v", tr)
		}
		ids[tr.ID] = true
	}
	if len(ids) != 3 {
		t.Errorf("trace IDs not unique: %v", ids)
	}
}

// TestNewID: ids are non-empty and unique across a small draw.
func TestNewID(t *testing.T) {
	ids := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if id == "" || ids[id] {
			t.Fatalf("bad id %q (dup=%v)", id, ids[id])
		}
		ids[id] = true
	}
}

// TestTraceJSONShape: the wire encoding keeps its documented field names.
func TestTraceJSONShape(t *testing.T) {
	r := NewRecorder("t5")
	fullRun(r)
	b, err := json.Marshal(r.Trace())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"id", "started_at", "duration_ms", "mode", "start", "complete", "spans", "polls"} {
		if _, ok := m[key]; !ok {
			t.Errorf("encoding missing %q: %s", key, b)
		}
	}
}
