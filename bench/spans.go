package main

// Harness-side spans: one record per call into a layer, taken from
// outside the program. Spans stay in memory while the run is timed and
// are written to bench/out/trace-<workload>.json at the end.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval. Spans of one request (or one in-process
// input) share Request; Parent is the span that caused this one, 0 for a
// root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Request string `json:"request,omitempty"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
	// SelfUS is the span's duration minus the part of it its child spans
	// cover; filled in when the trace is written.
	SelfUS int64 `json:"self_us"`
}

// recorder collects spans. A nil recorder records nothing, so the same
// code runs with and without span recording.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent int, name, request string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request, StartUS: now, EndUS: -1})
	return len(r.spans)
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

// add records a span whose endpoints were taken elsewhere (client-side
// request phases).
func (r *recorder) add(parent int, name, request string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request,
		StartUS: start.Sub(r.t0).Microseconds(), EndUS: end.Sub(r.t0).Microseconds()})
	return len(r.spans)
}

// timed runs fn inside a span and returns its duration in milliseconds.
// The clock is read directly, so the result is the same with a nil
// recorder.
func (r *recorder) timed(parent int, name, request string, fn func()) float64 {
	id := r.begin(parent, name, request)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return ms(d)
}

// finish computes every span's self time: its duration minus the union
// of the intervals its direct children cover.
func (r *recorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]int)
	for i, sp := range r.spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.EndUS < sp.StartUS {
			sp.EndUS = sp.StartUS
		}
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartUS < r.spans[kids[b]].StartUS })
		var covered, reach int64 = 0, sp.StartUS
		for _, k := range kids {
			lo, hi := r.spans[k].StartUS, r.spans[k].EndUS
			if lo < reach {
				lo = reach
			}
			if hi > sp.EndUS {
				hi = sp.EndUS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		sp.SelfUS = sp.EndUS - sp.StartUS - covered
	}
	return r.spans
}

// traceFile is the layout of bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(outDir, workload string, seed int64, r *recorder) (string, error) {
	raw, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.finish()})
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
