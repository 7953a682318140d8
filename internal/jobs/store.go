package jobs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"affidavit/internal/wal"
)

// Options configures Open.
type Options struct {
	// Dir roots the durable state (journal.jsonl, blobs/, results/).
	// Empty means a private directory under os.TempDir that Close
	// removes: the same journal, blobs and results, kept for one process.
	Dir string
	// CompactEvery snapshots the journal after this many appended
	// transitions (0 = default 256). Compaction rewrites the live records
	// and renames the fresh log into place.
	CompactEvery int
}

// defaultCompactEvery bounds journal growth between compactions.
const defaultCompactEvery = 256

// Store is the job queue + result store. All methods are safe for
// concurrent use.
type Store struct {
	dir          string
	private      bool // dir was made by Open, and Close removes it
	blobs        *BlobStore
	compactEvery int

	mu       sync.Mutex
	jrnl     *wal.Log[Record]
	jobs     map[string]*Job
	byAddr   map[string]*Job
	order    []*Job // submission order (ascending Seq) — the listing order
	seq      uint64
	wake     chan struct{} // closed+replaced to broadcast queue changes
	closed   bool
	closedCh chan struct{}
	// journalErr latches the first journal write failure: the store keeps
	// serving from memory (availability over durability) and Close
	// surfaces the error.
	journalErr error

	submitted, dedupeHits, completed, failed, cancelled, requeued int64
}

// Job is a handle on one queued computation. The handle stays valid for
// the store's lifetime; its state advances underneath it.
type Job struct {
	st      *Store
	rec     Record
	payload any
	result  []byte
	done    chan struct{} // closed on terminal transition
	cancel  context.CancelCauseFunc
	claimed bool
}

// ID returns the job's stable identifier.
func (j *Job) ID() string {
	j.st.mu.Lock()
	defer j.st.mu.Unlock()
	return j.rec.ID
}

// Record returns a copy of the job's current record.
func (j *Job) Record() Record {
	j.st.mu.Lock()
	defer j.st.mu.Unlock()
	return j.rec
}

// Spec describes one submission.
type Spec struct {
	// Addr is the content address the job is joined and named by: an
	// explain pair's 64-hex Address, or a catalog step's 32-hex snapshot
	// id. Submit refuses an empty one.
	Addr   string
	Table  string
	Format string
	// Kind tags non-/explain jobs for runner dispatch ("" = explain).
	Kind string
	// SnapshotID/ParentID carry catalog lineage through the journal.
	SnapshotID, ParentID string
	// SourceBlob/TargetBlob address the canonical uploads in Blobs().
	SourceBlob, TargetBlob string
	// Payload is non-durable run state handed to the Runner (the daemon
	// passes its already-ingested tables and the request's trace
	// recorder). Jobs replayed from the journal run with a nil payload
	// and must reconstruct from the blobs. The store keeps it across
	// requeues and drops it when the job ends.
	Payload any
}

// Open opens (or creates) a store, replaying its journal first: pending
// jobs are requeued, jobs found mid-run are requeued with a bumped
// Requeues counter, completed jobs keep serving their stored results.
// Without Options.Dir the store lives in a fresh private directory, which
// Close (or a failed Open) removes.
func Open(opts Options) (_ *Store, err error) {
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	s := &Store{
		dir:          opts.Dir,
		compactEvery: opts.CompactEvery,
		jobs:         make(map[string]*Job),
		byAddr:       make(map[string]*Job),
		wake:         make(chan struct{}),
		closedCh:     make(chan struct{}),
	}
	if s.dir == "" {
		if s.dir, err = os.MkdirTemp("", "affidavit-jobs-*"); err != nil {
			return nil, fmt.Errorf("jobs: private dir: %w", err)
		}
		s.private = true
		defer func() {
			if err != nil {
				os.RemoveAll(s.dir)
			}
		}()
	}
	if err := os.MkdirAll(filepath.Join(s.dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: results dir: %w", err)
	}
	if s.blobs, err = newBlobStore(filepath.Join(s.dir, "blobs")); err != nil {
		return nil, err
	}
	jrnl, recs, err := wal.Open(filepath.Join(s.dir, "journal.jsonl"), journalSchema)
	if err != nil {
		return nil, err
	}
	s.jrnl = jrnl
	for _, rec := range recs {
		j := &Job{st: s, rec: rec, done: make(chan struct{})}
		switch rec.State {
		case StateRunning:
			// Orphaned by a crash mid-run: requeue. The journal gets the
			// corrected line so a second crash doesn't bump Requeues twice
			// for the same interruption.
			j.rec.State = StatePending
			j.rec.Requeues++
			if err := jrnl.Append(j.rec); err != nil {
				return nil, err
			}
		case StateCompleted:
			if _, err := os.Stat(s.resultPath(rec.ID)); err != nil {
				// The journal promised a result the disk lost: surface the
				// loss as a terminal error instead of serving nothing.
				j.rec.State = StateError
				j.rec.Error = "result lost before shutdown; resubmit the pair"
				if err := jrnl.Append(j.rec); err != nil {
					return nil, err
				}
			}
		}
		if j.rec.State.Terminal() {
			close(j.done)
		}
		s.jobs[j.rec.ID] = j
		if j.rec.Addr != "" { // catalog steps of older journals have none
			s.byAddr[j.rec.Addr] = j
		}
		s.order = append(s.order, j)
		if j.rec.Seq >= s.seq {
			s.seq = j.rec.Seq + 1
		}
	}
	return s, nil
}

// Blobs returns the store's blob store.
func (s *Store) Blobs() *BlobStore { return s.blobs }

// Dir returns the directory the store keeps its state in: Options.Dir, or
// the private directory Open made in its place.
func (s *Store) Dir() string { return s.dir }

// Joinable reports whether Submit would answer addr by joining an
// existing job that needs nothing from the submitter: the job is pending,
// running or completed and both of its upload blobs are still stored, so
// a rerun or a crash-requeue could replay it. The answer is advisory: on
// true the daemon skips ingesting a duplicate upload, and Submit stays
// the one atomic dedupe decision.
func (s *Store) Joinable(addr string) bool {
	s.mu.Lock()
	j, ok := s.byAddr[addr]
	var rec Record
	if ok {
		rec = j.rec
	}
	s.mu.Unlock()
	if !ok || !rec.State.joinable() {
		return false
	}
	return s.blobs.Exists(rec.SourceBlob) && s.blobs.Exists(rec.TargetBlob)
}

// Submit queues spec, or joins the existing job when spec.Addr matches a
// pending, running or completed submission (created=false, the dedupe
// hit). A previously failed or cancelled address is resurrected: reset
// to pending and run again with the fresh payload. A spec without an
// Addr is refused with ErrNoAddr.
func (s *Store) Submit(spec Spec) (*Job, bool, error) {
	if spec.Addr == "" {
		return nil, false, ErrNoAddr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if j, ok := s.byAddr[spec.Addr]; ok {
		if j.rec.State.joinable() {
			j.rec.DedupeHits++
			s.dedupeHits++
			return j, false, nil
		}
		// Terminal failure: rerun under the same identity.
		j.rec.State = StatePending
		j.rec.Attempts = 0
		j.rec.Error = ""
		j.rec.Deadline = false
		j.rec.Stats = nil
		j.rec.TraceID = ""
		j.rec.ContentType = ""
		j.payload = spec.Payload
		j.result = nil
		j.done = make(chan struct{})
		j.claimed = false
		s.submitted++
		s.appendLocked(j.rec)
		s.broadcastLocked()
		return j, true, nil
	}
	seq := s.seq
	s.seq++
	id := spec.Addr
	if len(id) > 32 {
		id = id[:32] // half the hex address is plenty of identity for an api path
	}
	j := &Job{
		st: s,
		rec: Record{
			ID:         id,
			Seq:        seq,
			Addr:       spec.Addr,
			Table:      spec.Table,
			Format:     spec.Format,
			Kind:       spec.Kind,
			SnapshotID: spec.SnapshotID,
			ParentID:   spec.ParentID,
			SourceBlob: spec.SourceBlob,
			TargetBlob: spec.TargetBlob,
			State:      StatePending,
		},
		payload: spec.Payload,
		done:    make(chan struct{}),
	}
	s.jobs[id] = j
	s.byAddr[spec.Addr] = j
	s.order = append(s.order, j)
	s.submitted++
	s.appendLocked(j.rec)
	s.broadcastLocked()
	return j, true, nil
}

// Get returns the job with the given id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns every job record in submission order (ascending Seq) —
// the deterministic listing /jobs serves.
func (s *Store) List() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.order))
	for i, j := range s.order {
		out[i] = j.rec
	}
	return out
}

// Cancel requests cancellation of the job with the given id. A pending
// job transitions to cancelled immediately; a running job has its
// context cancelled with ErrCancelRequested (the terminal transition
// lands when the run unwinds); a terminal job is returned unchanged. The
// returned record is the state as of this call.
func (s *Store) Cancel(id string) (Record, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Record{}, ErrNotFound
	}
	switch j.rec.State {
	case StatePending:
		j.claimed = true // a claimed-but-unstarted worker must drop it
		s.finishLocked(j, func(r *Record) { r.State = StateCancelled })
		rec := j.rec
		s.mu.Unlock()
		return rec, nil
	case StateRunning:
		cancel := j.cancel
		rec := j.rec
		s.mu.Unlock()
		if cancel != nil {
			cancel(ErrCancelRequested)
		}
		return rec, nil
	default:
		rec := j.rec
		s.mu.Unlock()
		return rec, nil
	}
}

// Wait blocks until the job reaches a terminal state and returns its
// record. It returns early with ctx's error if ctx ends, or ErrClosed if
// the store closes first (the daemon maps that to "shutting down").
func (s *Store) Wait(ctx context.Context, j *Job) (Record, error) {
	for {
		s.mu.Lock()
		rec := j.rec
		done := j.done
		s.mu.Unlock()
		if rec.State.Terminal() {
			return rec, nil
		}
		select {
		case <-done:
		case <-s.closedCh:
			return Record{}, ErrClosed
		case <-ctx.Done():
			return Record{}, ctx.Err()
		}
	}
}

// Result returns a completed job's stored body and record.
func (s *Store) Result(id string) ([]byte, Record, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, Record{}, ErrNotFound
	}
	rec := j.rec
	cached := j.result
	s.mu.Unlock()
	if rec.State != StateCompleted {
		return nil, rec, fmt.Errorf("jobs: job %s is %s, not completed", id, rec.State)
	}
	if cached != nil {
		return cached, rec, nil
	}
	body, err := os.ReadFile(s.resultPath(id))
	if err != nil {
		return nil, rec, fmt.Errorf("jobs: reading result: %w", err)
	}
	s.mu.Lock()
	if j.result == nil {
		j.result = body
	}
	s.mu.Unlock()
	return body, rec, nil
}

// Metrics is a point-in-time snapshot of the store's gauges and
// lifetime-of-process counters.
type Metrics struct {
	// Queued and Running are current gauges.
	Queued, Running int
	// The rest count since process start (journal replay does not
	// reconstruct them — Prometheus counters reset on restart anyway).
	Submitted, DedupeHits, Completed, Failed, Cancelled, Requeued int64
	// JournalError is the latched first journal write failure, "" while
	// the store is durable. A non-empty value means the store degraded to
	// availability-over-durability: jobs keep running but transitions
	// since the failure would not survive a crash.
	JournalError string
}

// Metrics returns the current snapshot.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Submitted:  s.submitted,
		DedupeHits: s.dedupeHits,
		Completed:  s.completed,
		Failed:     s.failed,
		Cancelled:  s.cancelled,
		Requeued:   s.requeued,
	}
	if s.journalErr != nil {
		m.JournalError = s.journalErr.Error()
	}
	for _, j := range s.order {
		switch j.rec.State {
		case StatePending:
			m.Queued++
		case StateRunning:
			m.Running++
		}
	}
	return m
}

// Close marks the store closed, releases waiters and closes the journal;
// a private directory is then removed. Close the worker pool first: a
// runner finishing after Close cannot journal its transition.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.journalErr
	}
	s.closed = true
	close(s.closedCh)
	s.broadcastLocked()
	if err := s.jrnl.Close(); err != nil && s.journalErr == nil {
		s.journalErr = err
	}
	if s.private {
		os.RemoveAll(s.dir)
	}
	return s.journalErr
}

// resultPath is the durable result file for a job id.
func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "results", id)
}

// appendLocked journals rec and compacts when the log has grown enough.
// Journal failures latch journalErr; the in-memory state stays correct.
func (s *Store) appendLocked(rec Record) {
	err := s.jrnl.Append(rec)
	if err == nil && s.jrnl.Appended() >= s.compactEvery {
		live := make([]Record, len(s.order))
		for i, j := range s.order {
			live[i] = j.rec
		}
		err = s.jrnl.Compact(live)
	}
	if err != nil && s.journalErr == nil {
		s.journalErr = err
	}
}

// broadcastLocked wakes every worker watching the queue.
func (s *Store) broadcastLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// claimFor hands worker wid (of n) its next pending job, marking it
// claimed, or nil and the broadcast channel to watch for queue changes.
func (s *Store) claimFor(wid, n int) (*Job, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.order {
		if j.rec.State != StatePending || j.claimed {
			continue
		}
		if workerFor(j.rec.Table, n) != wid {
			continue
		}
		j.claimed = true
		return j, nil
	}
	return nil, s.wake
}

// payload returns the job's non-durable run state (nil after replay).
func (s *Store) payload(j *Job) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.payload
}

// startRun transitions a claimed job to running and registers its cancel
// function. It refuses (false) when the job was cancelled between claim
// and start.
func (s *Store) startRun(j *Job, cancel context.CancelCauseFunc) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.rec.State != StatePending {
		return j.rec, false
	}
	j.rec.State = StateRunning
	j.rec.Attempts++
	j.cancel = cancel
	s.appendLocked(j.rec)
	return j.rec, true
}

// finish lands j's terminal transition, the one way a job ends: set edits
// the record to its final state, then the run's cancel function and
// payload are dropped, the job is counted by that state, the record is
// journaled and the waiters are released.
func (s *Store) finish(j *Job, set func(*Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, set)
}

// finishLocked is finish for a caller that holds s.mu.
func (s *Store) finishLocked(j *Job, set func(*Record)) {
	set(&j.rec)
	j.cancel = nil
	j.payload = nil
	switch j.rec.State {
	case StateCompleted:
		s.completed++
	case StateError:
		s.failed++
	case StateCancelled:
		s.cancelled++
	}
	s.appendLocked(j.rec)
	close(j.done)
}

// complete stores the result durably (before the completed journal line,
// so a journaled completion always has its bytes) and ends the job.
func (s *Store) complete(j *Job, out *Outcome) {
	if err := writeFileSync(s.resultPath(j.ID()), out.Body); err != nil {
		s.fail(j, fmt.Sprintf("storing result: %v", err), out)
		return
	}
	s.finish(j, func(r *Record) {
		r.State = StateCompleted
		r.ContentType = out.ContentType
		r.Stats = out.Stats
		r.TraceID = out.TraceID
		r.Error = ""
		j.result = out.Body // under the lock, before the waiters wake
	})
}

// fail terminally errors the job.
func (s *Store) fail(j *Job, msg string, out *Outcome) {
	s.finish(j, func(r *Record) {
		r.State = StateError
		r.Error = msg
		out.keep(r)
	})
}

// failDeadline terminally errors a job cut by its own run budget,
// keeping the partial statistics for the 503 answer.
func (s *Store) failDeadline(j *Job, out *Outcome) {
	s.finish(j, func(r *Record) {
		r.State = StateError
		r.Error = "deadline exceeded before the explanation finished"
		r.Deadline = true
		out.keep(r)
	})
}

// cancelDone lands the terminal transition of a DELETE-cancelled run.
func (s *Store) cancelDone(j *Job, out *Outcome) {
	s.finish(j, func(r *Record) {
		r.State = StateCancelled
		out.keep(r)
	})
}

// keep copies an ended run's statistics and trace id into r; a run that
// produced no outcome leaves r's as they are.
func (out *Outcome) keep(r *Record) {
	if out != nil {
		r.Stats = out.Stats
		r.TraceID = out.TraceID
	}
}

// requeue returns a shutdown-interrupted run to the queue — the
// journaled pending line is what "drain-on-shutdown persists the queue"
// means. Waiters are not released; the next process run finishes the
// job.
func (s *Store) requeue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StatePending
	j.rec.Requeues++
	j.cancel = nil
	j.claimed = false
	s.requeued++
	s.appendLocked(j.rec)
	s.broadcastLocked()
}
