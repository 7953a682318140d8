// Package jobs is affidavitd's durable, content-addressed job subsystem:
// a queue + result store that survives restarts on nothing but the
// standard library, and a worker pool that drains it through a
// caller-supplied runner.
//
// Durability is an internal/wal journal — one full job record per line,
// fsynced on every state transition — plus periodic snapshot compaction
// (the live records rewritten to a fresh file and renamed into place).
// Recovery replays the journal last-line-per-id-wins, tolerates a torn
// final line (the tail is truncated, not fatal), requeues jobs that were
// running when the process died, and keeps completed results intact.
//
// Jobs are keyed by a content address: a SHA-256 over the canonicalized
// snapshot uploads and the explain options (see Address), or a catalog
// step's snapshot id. Submitting a pair that is already pending, running
// or completed joins the existing job instead of queueing a second
// computation — explanations are deterministic and responses
// byte-identical, so a cached result is exact, not approximate.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"

	"affidavit/internal/wal"
)

// State is a job's lifecycle position.
type State string

const (
	// StatePending queues the job for a worker (initial state, and the
	// state a crashed or shutdown-interrupted run is requeued to).
	StatePending State = "pending"
	// StateRunning marks a claimed job whose runner is executing.
	StateRunning State = "running"
	// StateCompleted holds a result in the result store.
	StateCompleted State = "completed"
	// StateError is a terminal failure: the run returned an error or
	// hit the job's own deadline. Resubmitting the pair reruns it.
	StateError State = "error"
	// StateCancelled is a terminal cancel via DELETE /jobs/{id}.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final: no worker will touch the
// job again and waiters are released.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateError || s == StateCancelled
}

// joinable reports whether a resubmission of the job's address joins it
// (pending, running or completed) instead of running it again.
func (s State) joinable() bool {
	return s != StateError && s != StateCancelled
}

// Record is one job's durable state — exactly what a journal line holds.
// It is a fixed struct (never a map) so the journal encoding is
// deterministic: encoding/json emits struct fields in declaration order.
// Wall-clock times are deliberately absent; the only ordering token is
// Seq, so replayed journals list identically to live stores.
type Record struct {
	// ID names the job in the API: Addr cut to 32 hex (a catalog step's
	// snapshot id as is), stable across resubmissions and restarts.
	ID string `json:"id"`
	// Seq is the submission sequence number; listings order by it.
	Seq uint64 `json:"seq"`
	// Addr is the content address joining identical submissions; only
	// catalog steps of older journals lack it, and they never join.
	Addr string `json:"addr,omitempty"`
	// Table names the result's table; the pool shards worker affinity on
	// it.
	Table string `json:"table,omitempty"`
	// Format is the requested result encoding (json | sql | text).
	Format string `json:"format,omitempty"`
	// Kind tags non-/explain jobs so the runner can dispatch them (e.g.
	// "catalog" for snapshot-catalog chain steps); empty means a plain
	// explain job. Old journals decode with the zero value.
	Kind string `json:"kind,omitempty"`
	// SnapshotID/ParentID carry catalog lineage: the pushed snapshot this
	// step explains and the chain parent it explains it against.
	SnapshotID string `json:"snapshot_id,omitempty"`
	ParentID   string `json:"parent_id,omitempty"`
	// SourceBlob/TargetBlob address the canonicalized uploads in the blob
	// store, so a requeued job can re-ingest after a crash.
	SourceBlob string `json:"source_blob,omitempty"`
	TargetBlob string `json:"target_blob,omitempty"`
	State      State  `json:"state"`
	// Attempts counts runner executions (first run included).
	Attempts int `json:"attempts,omitempty"`
	// Requeues counts crash/shutdown recoveries back to pending.
	Requeues int `json:"requeues,omitempty"`
	// DedupeHits counts submissions that joined this job instead of
	// queueing their own computation.
	DedupeHits int64 `json:"dedupe_hits,omitempty"`
	// Error is the terminal failure message (state "error"). Journals
	// written while the pool still retried failed runs can hold one on a
	// pending line; such a job replays as pending and runs once.
	Error string `json:"error,omitempty"`
	// Deadline marks an error state caused by the job's own run budget —
	// the daemon maps it to the 503 partial-stats answer.
	Deadline bool `json:"deadline,omitempty"`
	// TraceID joins the job to its run trace in /traces.
	TraceID string `json:"trace_id,omitempty"`
	// ContentType is the stored result's MIME type.
	ContentType string `json:"content_type,omitempty"`
	// Stats is the run's final (or partial, on deadline) search
	// statistics, pre-encoded by the runner.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// Sentinel errors.
var (
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("jobs: store closed")
	// ErrNoAddr reports a submission without a content address.
	ErrNoAddr = errors.New("jobs: submission without a content address")
	// ErrCancelRequested is the context cause a DELETE /jobs/{id} cancel
	// delivers to a running job.
	ErrCancelRequested = errors.New("jobs: cancel requested")
	// ErrShutdown is the context cause pool shutdown delivers; runs cut
	// by it are requeued (drain-on-shutdown persists the queue), not
	// failed.
	ErrShutdown = errors.New("jobs: shutting down")
)

// journalSchema replays journal.jsonl: one live record per job id,
// listed by submission order.
var journalSchema = wal.Schema[Record]{
	Key:   func(r *Record) string { return r.ID },
	Seq:   func(r *Record) uint64 { return r.Seq },
	Valid: (*Record).validate,
}

// validate rejects records a hostile or torn journal could hold but a
// live store never writes.
func (r *Record) validate() error {
	if r.ID == "" {
		return fmt.Errorf("jobs: journal record without id")
	}
	switch r.State {
	case StatePending, StateRunning, StateCompleted, StateError, StateCancelled:
		return nil
	default:
		return fmt.Errorf("jobs: journal record %s has unknown state %q", r.ID, r.State)
	}
}
