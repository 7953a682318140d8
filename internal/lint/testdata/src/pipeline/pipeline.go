// Package pipeline is an obsevent fixture: event emission must stay on
// the polling goroutine.
package pipeline

import (
	"context"
	"sort"
	"sync"

	"obs"
)

type engine struct {
	sink obs.Sink
}

func (e *engine) emit(ev obs.Event) {
	if e.sink != nil {
		e.sink(ev)
	}
}

// runAll mirrors the worker pool: the callback runs on pool goroutines.
func (e *engine) runAll(n int, fn func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); fn(i) }(i)
	}
	wg.Wait()
}

// Flagged: emission from a spawned goroutine.
func badGoroutine(e *engine) {
	go func() {
		e.sink(obs.Event{Kind: 1}) // want "obs.Sink call inside a goroutine"
	}()
}

// Flagged: emission from a literal handed to the worker pool.
func badWorkerPool(e *engine) {
	e.runAll(4, func(i int) {
		e.emit(obs.Event{Poll: i}) // want "emit call inside a function literal handed to runAll"
	})
}

// Flagged: the run's sink, read from its context, called off-goroutine.
func badContextSink(ctx context.Context) {
	sink := obs.FromContext(ctx)
	go func() {
		sink(obs.Event{Kind: 2}) // want "obs.Sink call inside a goroutine"
	}()
}

// Allowed: the finish-closure idiom — assigned first, invoked locally.
func goodFinishClosure(e *engine) {
	finish := func() {
		e.emit(obs.Event{Kind: 6})
	}
	finish()
}

// Allowed: sort callbacks run synchronously on this goroutine.
func goodSortCallback(e *engine, xs []int) {
	sort.Slice(xs, func(i, j int) bool {
		e.emit(obs.Event{})
		return xs[i] < xs[j]
	})
}

// Allowed: a justified synchronous callback.
func goodJustified(e *engine, apply func(func(int))) {
	apply(func(i int) {
		e.emit(obs.Event{Poll: i}) //affidavit:ignore obsevent apply invokes synchronously on the polling goroutine
	})
}
