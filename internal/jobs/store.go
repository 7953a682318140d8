package jobs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"affidavit/internal/wal"
)

// Options configures Open.
type Options struct {
	// Dir roots the durable state (journal.jsonl, blobs/, results/).
	// Empty means a process-local in-memory store: same queue, dedupe and
	// cancel semantics, no crash durability.
	Dir string
	// CompactEvery snapshots the journal after this many appended
	// transitions (0 = default 256). Compaction rewrites the live records
	// and renames the fresh log into place.
	CompactEvery int
	// Now is the clock; nil means time.Now. Tests inject a fake. It only
	// paces retry backoff — no wall-clock value is ever journaled.
	Now func() time.Time
}

// defaultCompactEvery bounds journal growth between compactions.
const defaultCompactEvery = 256

// Store is the job queue + result store. All methods are safe for
// concurrent use.
type Store struct {
	dir          string
	blobs        *BlobStore
	now          func() time.Time
	compactEvery int

	mu       sync.Mutex
	jrnl     *wal.Log[Record] // nil in memory mode
	jobs     map[string]*Job
	byAddr   map[string]*Job
	order    []*Job // submission order (ascending Seq) — the listing order
	seq      uint64
	wake     chan struct{} // closed+replaced to broadcast queue changes
	closed   bool
	closedCh chan struct{}
	// journalErr latches the first journal write failure: the store keeps
	// serving from memory (availability over durability, like the spill
	// manager's advisory budget) and Close surfaces the error.
	journalErr error

	submitted, dedupeHits, completed, failed, cancelled, retried, requeued int64
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
	readyAt time.Time // earliest dispatch (retry backoff); zero = now
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
	// Addr is the content address ("" = never dedupe; the job gets a
	// unique id instead).
	Addr   string
	Table  string
	Format string
	Warm   bool
	// Kind tags non-/explain jobs for runner dispatch ("" = explain).
	Kind string
	// SnapshotID/ParentID carry catalog lineage through the journal.
	SnapshotID, ParentID string
	// SourceBlob/TargetBlob address the canonical uploads in Blobs().
	SourceBlob, TargetBlob string
	// Payload is non-durable run state handed to the Runner (the daemon
	// passes its already-ingested tables and the request's trace
	// recorder). Jobs replayed from the journal run with a nil payload
	// and must reconstruct from the blobs.
	Payload any
}

// Open opens (or creates) a store. With Options.Dir set, the journal is
// replayed first: pending jobs are requeued, jobs found mid-run are
// requeued with a bumped Requeues counter, completed jobs keep serving
// their stored results.
func Open(opts Options) (*Store, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = defaultCompactEvery
	}
	s := &Store{
		dir:          opts.Dir,
		now:          opts.Now,
		compactEvery: opts.CompactEvery,
		jobs:         make(map[string]*Job),
		byAddr:       make(map[string]*Job),
		wake:         make(chan struct{}),
		closedCh:     make(chan struct{}),
	}
	blobDir := ""
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: store dir: %w", err)
		}
		if err := os.MkdirAll(filepath.Join(opts.Dir, "results"), 0o755); err != nil {
			return nil, fmt.Errorf("jobs: results dir: %w", err)
		}
		blobDir = filepath.Join(opts.Dir, "blobs")
	}
	blobs, err := newBlobStore(blobDir)
	if err != nil {
		return nil, err
	}
	s.blobs = blobs
	if opts.Dir == "" {
		return s, nil
	}
	jrnl, recs, err := wal.Open(filepath.Join(opts.Dir, "journal.jsonl"), journalSchema)
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
		if j.rec.Addr != "" {
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

// Joinable reports whether Submit would answer addr by joining an
// existing job that needs nothing from the submitter: the job is pending,
// running or completed and — in durable mode — both of its upload blobs
// are still stored, so even a crash-requeue could replay it. The answer
// is advisory: on true the daemon skips ingesting a duplicate upload, and
// Submit stays the one atomic dedupe decision.
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
	return s.dir == "" || (s.blobs.Exists(rec.SourceBlob) && s.blobs.Exists(rec.TargetBlob))
}

// Submit queues spec, or joins the existing job when spec.Addr matches a
// pending, running or completed submission (created=false, the dedupe
// hit). A previously failed or cancelled address is resurrected: reset
// to pending and run again with the fresh payload.
func (s *Store) Submit(spec Spec) (*Job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	if spec.Addr != "" {
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
			j.readyAt = time.Time{}
			j.claimed = false
			s.submitted++
			s.appendLocked(j.rec)
			s.broadcastLocked()
			return j, true, nil
		}
	}
	seq := s.seq
	s.seq++
	id := spec.Addr
	if id == "" {
		// Non-dedupable (warm-chain) jobs get a unique id salted with the
		// sequence number — deterministic given the submission order,
		// never colliding across restarts (Seq is restored on replay).
		id = Address("unaddressed", spec.Table, strconv.FormatUint(seq, 10), spec.SourceBlob, spec.TargetBlob)
	}
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
			Warm:       spec.Warm,
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
	if spec.Addr != "" {
		s.byAddr[spec.Addr] = j
	}
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
		j.rec.State = StateCancelled
		j.claimed = true // a claimed-but-unstarted worker must drop it
		s.cancelled++
		s.appendLocked(j.rec)
		close(j.done)
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
	Submitted, DedupeHits, Completed, Failed, Cancelled, Retried, Requeued int64
	// JournalError is the latched first journal write failure, "" while
	// the store is durable (or in-memory). A non-empty value means the
	// store degraded to availability-over-durability: jobs keep running
	// but transitions since the failure would not survive a crash.
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
		Retried:    s.retried,
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

// Close marks the store closed, releases waiters and closes the journal.
// Close the worker pool first: a runner finishing after Close cannot
// journal its transition.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.journalErr
	}
	s.closed = true
	close(s.closedCh)
	s.broadcastLocked()
	if s.jrnl != nil {
		if err := s.jrnl.Close(); err != nil && s.journalErr == nil {
			s.journalErr = err
		}
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
	if s.jrnl == nil {
		return
	}
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

// claimFor hands worker wid (of n) its next due job, marking it claimed.
// When nothing is due it returns the wait until this worker's earliest
// backoff expiry (0 = nothing scheduled at all) and the broadcast
// channel to watch for queue changes.
func (s *Store) claimFor(wid, n int) (*Job, time.Duration, <-chan struct{}) {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var wait time.Duration
	for _, j := range s.order {
		if j.rec.State != StatePending || j.claimed {
			continue
		}
		if workerFor(j.rec.Table, n) != wid {
			continue
		}
		if !j.readyAt.IsZero() && j.readyAt.After(now) {
			if d := j.readyAt.Sub(now); wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		j.claimed = true
		return j, 0, s.wake
	}
	return nil, wait, s.wake
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

// complete stores the result durably (before the completed journal line,
// so a journaled completion always has its bytes) and closes the job.
func (s *Store) complete(j *Job, out *Outcome) {
	if s.dir != "" {
		if err := writeFileSync(s.resultPath(j.ID()), out.Body); err != nil {
			s.fail(j, fmt.Sprintf("storing result: %v", err), out)
			return
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StateCompleted
	j.rec.ContentType = out.ContentType
	j.rec.Stats = out.Stats
	j.rec.TraceID = out.TraceID
	j.rec.Error = ""
	j.result = out.Body
	j.cancel = nil
	s.completed++
	s.appendLocked(j.rec)
	close(j.done)
}

// fail terminally errors the job.
func (s *Store) fail(j *Job, msg string, out *Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StateError
	j.rec.Error = msg
	if out != nil {
		j.rec.Stats = out.Stats
		j.rec.TraceID = out.TraceID
	}
	j.cancel = nil
	s.failed++
	s.appendLocked(j.rec)
	close(j.done)
}

// failDeadline terminally errors a job cut by its own run budget,
// keeping the partial statistics for the 503 answer.
func (s *Store) failDeadline(j *Job, out *Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StateError
	j.rec.Error = "deadline exceeded before the explanation finished"
	j.rec.Deadline = true
	if out != nil {
		j.rec.Stats = out.Stats
		j.rec.TraceID = out.TraceID
	}
	j.cancel = nil
	s.failed++
	s.appendLocked(j.rec)
	close(j.done)
}

// cancelDone lands the terminal transition of a DELETE-cancelled run.
func (s *Store) cancelDone(j *Job, out *Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StateCancelled
	if out != nil {
		j.rec.Stats = out.Stats
		j.rec.TraceID = out.TraceID
	}
	j.cancel = nil
	s.cancelled++
	s.appendLocked(j.rec)
	close(j.done)
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
	j.readyAt = time.Time{}
	s.requeued++
	s.appendLocked(j.rec)
	s.broadcastLocked()
}

// retry schedules another attempt after backoff, recording the transient
// failure.
func (s *Store) retry(j *Job, msg string, backoff time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.rec.State = StatePending
	j.rec.Error = msg
	j.cancel = nil
	j.claimed = false
	j.readyAt = s.now().Add(backoff)
	s.retried++
	s.appendLocked(j.rec)
	s.broadcastLocked()
}
