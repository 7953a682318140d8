// Package catalog is affidavitd's snapshot-history catalog: registered
// tables, their pushed snapshot lineage, and the explanation chain the
// service computes over each adjacent pair. It turns the pair-diff engine
// into a monitoring surface — push successive snapshots of a table and
// the catalog keeps the full drift history, not just the latest diff.
//
// Durability is the job subsystem's: an internal/wal journal (one
// fixed-struct record per line, fsynced per append, torn-tail tolerant on
// replay) that is never compacted — catalog records are lineage facts,
// each written once (snapshots) or twice (steps), so the log is bounded
// by the history it stores. It holds three record kinds — table
// registrations, snapshot lineage (snapshot id, parent id, blob content
// address, operation tag, push timestamp, schema), and explanation steps
// (job id, status, per-step summary). Replay is last-line-per-key-wins,
// so a step's pending line is superseded by its explained/failed line and
// a half-written tail never corrupts earlier history.
//
// Snapshot ids are content-derived — a SHA-256 over the table name, the
// parent snapshot id and the upload's blob address — so the lineage chain
// is deterministic for a given push sequence, like a commit DAG without
// wall-clock input. Timestamps are journaled once at push and replayed
// verbatim, which is what keeps /history byte-stable across restarts.
package catalog

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"affidavit/internal/jobs"
	"affidavit/internal/wal"
)

// Record kinds: one journal line shape shared by the three catalog facts.
const (
	// KindTable registers a table name (keyed by Table).
	KindTable = "table"
	// KindSnapshot is one pushed snapshot's lineage (keyed by SnapshotID).
	KindSnapshot = "snapshot"
	// KindStep is one adjacent pair's explanation step (keyed by
	// SnapshotID — the step's target snapshot).
	KindStep = "step"
)

// StepStatus is an explanation step's catalog-side lifecycle position.
// A step the catalog still holds as StepPending may have progressed in
// the job store; serving code overlays the live job state.
type StepStatus string

const (
	// StepPending marks a step whose explain job is queued or running.
	StepPending StepStatus = "pending"
	// StepExplained marks a step with a stored explanation result.
	StepExplained StepStatus = "explained"
	// StepFailed marks a step that refused or failed to explain (schema
	// change, explain error); the chain continues from its snapshot.
	StepFailed StepStatus = "failed"
)

// StepFunction is one non-identity attribute function of a step's
// explanation, the per-attribute grain of the trend analytics.
type StepFunction struct {
	// Attribute names the transformed attribute.
	Attribute string `json:"attribute"`
	// Kind is the function family ("addition", "value-mapping", …).
	Kind string `json:"kind"`
	// Display is the function's human-readable rendering.
	Display string `json:"display"`
	// Updated counts core record pairs whose value this attribute actually
	// changed between the two snapshots.
	Updated int `json:"updated"`
}

// StepSummary condenses one step's explanation for timelines and trends —
// everything /history and /trends need without re-reading the full stored
// result. All fields derive from the deterministic explanation, so the
// summary is byte-stable for a fixed push sequence and seed.
type StepSummary struct {
	// Records is the target snapshot's record count.
	Records int `json:"records"`
	// Core counts aligned record pairs; Updates the subset whose record
	// changed in at least one attribute.
	Core    int `json:"core"`
	Updates int `json:"updates"`
	// Inserts and Deletes count unaligned target and source records.
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
	// Cost, TrivialCost and Compression mirror the stored result's MDL
	// figures (Compression = Cost/TrivialCost, 0 when trivial is 0).
	Cost        float64 `json:"cost"`
	TrivialCost float64 `json:"trivial_cost"`
	Compression float64 `json:"compression"`
	// Polls is the search effort; WarmEscalated reports the warm-start
	// guard rejected the previous step's seed as stale.
	Polls         int  `json:"polls"`
	WarmEscalated bool `json:"warm_escalated,omitempty"`
	// Functions lists the non-identity attribute functions in schema
	// order.
	Functions []StepFunction `json:"functions,omitempty"`
}

// Record is one catalog journal line. Like jobs.Record it is a fixed
// struct (never a map) so the journal encoding is deterministic; the
// three kinds share the shape and leave foreign fields empty. Timestamps
// are journaled once when the fact is recorded and replayed verbatim —
// they never re-derive from the clock, so listings are byte-stable across
// restarts.
type Record struct {
	// Kind discriminates the fact: KindTable, KindSnapshot or KindStep.
	Kind string `json:"kind"`
	// Seq is the catalog-wide append sequence; listings order by it.
	Seq uint64 `json:"seq"`
	// Table is the registered table name every kind belongs to.
	Table string `json:"table"`
	// Time is when the fact was recorded (registration, push, or the
	// step's latest transition), in UTC.
	Time time.Time `json:"time"`
	// SnapshotID identifies the snapshot (KindSnapshot) or the step's
	// target snapshot (KindStep): a SHA-256 prefix over table, parent id
	// and blob address.
	SnapshotID string `json:"snapshot_id,omitempty"`
	// ParentID is the previous snapshot in the lineage ("" for a table's
	// first snapshot).
	ParentID string `json:"parent_id,omitempty"`
	// Blob is the snapshot upload's content address in the job blob store.
	Blob string `json:"blob,omitempty"`
	// Op is the caller-supplied operation tag ("etl-run-42", "backfill").
	Op string `json:"op,omitempty"`
	// Records is the snapshot's record count at ingest.
	Records int `json:"records,omitempty"`
	// Schema is the snapshot's attribute list, recorded so a schema change
	// mid-chain is detectable from the catalog alone.
	Schema []string `json:"schema,omitempty"`
	// Status, JobID, Error and Summary are the step fields (KindStep).
	Status  StepStatus   `json:"status,omitempty"`
	JobID   string       `json:"job_id,omitempty"`
	Error   string       `json:"error,omitempty"`
	Summary *StepSummary `json:"summary,omitempty"`
}

// journalSchema replays catalog.jsonl: one live record per fact, so a
// step's terminal line supersedes its pending line.
var journalSchema = wal.Schema[Record]{
	Key:   func(r *Record) string { return r.Kind + "/" + r.Table + "/" + r.SnapshotID },
	Seq:   func(r *Record) uint64 { return r.Seq },
	Valid: (*Record).validate,
}

// validate rejects records a hostile or torn journal could hold but a
// live store never writes.
func (r *Record) validate() error {
	if r.Table == "" {
		return fmt.Errorf("catalog: journal record without table")
	}
	switch r.Kind {
	case KindTable:
		return nil
	case KindSnapshot, KindStep:
		if r.SnapshotID == "" {
			return fmt.Errorf("catalog: %s record without snapshot id", r.Kind)
		}
		return nil
	default:
		return fmt.Errorf("catalog: journal record has unknown kind %q", r.Kind)
	}
}

// snapshotIDLen truncates the hex address: half a SHA-256 is plenty of
// identity for an API path (the job store truncates the same way).
const snapshotIDLen = 32

// snapshotID derives a snapshot's identity from its position in the
// lineage: the table, the parent snapshot id and the upload's content
// address. Deterministic for a given push sequence and never colliding
// along a chain — each id folds in its parent's, like a commit DAG.
func snapshotID(table, parentID, blob string) string {
	id := jobs.Address("catalog/v1", table, parentID, blob)
	return id[:snapshotIDLen]
}

// nameRE bounds registered table names: path- and shell-safe, non-empty.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,127}$`)

// ValidName reports whether name is acceptable as a registered table
// name: 1–128 characters of letters, digits, '_', '.', '-', starting
// with a letter or digit.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// tableState is one registered table's in-memory view of the journal.
type tableState struct {
	rec   Record            // the KindTable registration
	snaps []Record          // KindSnapshot, push order (ascending Seq)
	steps map[string]Record // KindStep by target snapshot id
}

// Store is the journal-backed catalog state. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	jrnl   *wal.Log[Record] // nil in memory mode
	now    func() time.Time
	tables map[string]*tableState
	order  []string // registration order — the deterministic listing order
	seq    uint64
	// journalErr latches the first journal write failure: like the job
	// store, the catalog keeps serving from memory (availability over
	// durability) and Close surfaces the error.
	journalErr error
}

// OpenStore opens (or creates) the catalog store rooted at dir. An empty
// dir is a process-local in-memory catalog: same lineage and chain
// semantics, no crash durability. now is the clock for journaled
// timestamps; nil means time.Now.
func OpenStore(dir string, now func() time.Time) (*Store, error) {
	if now == nil {
		now = time.Now
	}
	s := &Store{now: now, tables: make(map[string]*tableState)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: store dir: %w", err)
	}
	jrnl, recs, err := wal.Open(filepath.Join(dir, "catalog.jsonl"), journalSchema)
	if err != nil {
		return nil, err
	}
	s.jrnl = jrnl
	for _, rec := range recs {
		s.applyLocked(rec)
		if rec.Seq >= s.seq {
			s.seq = rec.Seq + 1
		}
	}
	return s, nil
}

// applyLocked folds one replayed (or freshly journaled) record into the
// in-memory state. Records arrive in Seq order, so a snapshot always
// follows its table's registration — but a registration lost to a torn
// tail is synthesized rather than dropping the lineage that survived.
func (s *Store) applyLocked(rec Record) {
	ts, ok := s.tables[rec.Table]
	if !ok {
		ts = &tableState{steps: make(map[string]Record)}
		if rec.Kind != KindTable {
			ts.rec = Record{Kind: KindTable, Seq: rec.Seq, Table: rec.Table, Time: rec.Time}
		}
		s.tables[rec.Table] = ts
		s.order = append(s.order, rec.Table)
	}
	switch rec.Kind {
	case KindTable:
		ts.rec = rec
	case KindSnapshot:
		ts.snaps = append(ts.snaps, rec)
	case KindStep:
		ts.steps[rec.SnapshotID] = rec
	}
}

// appendLocked journals rec, latching the first failure like the job
// store does — catalog writes never fail a push that already ingested.
func (s *Store) appendLocked(rec Record) {
	if s.jrnl == nil {
		return
	}
	if err := s.jrnl.Append(rec); err != nil && s.journalErr == nil {
		s.journalErr = err
	}
}

// Sentinel errors for the service layer to map onto HTTP statuses.
var (
	// ErrNoTable reports an unregistered table name.
	ErrNoTable = fmt.Errorf("catalog: no such table")
	// ErrTableExists reports a duplicate registration.
	ErrTableExists = fmt.Errorf("catalog: table already registered")
	// ErrBadName reports a table name ValidName rejects.
	ErrBadName = fmt.Errorf("catalog: invalid table name (want 1-128 of [A-Za-z0-9_.-], starting alphanumeric)")
)

// Register records a new table. The returned record carries the
// registration timestamp the journal holds.
func (s *Store) Register(name string) (Record, error) {
	if !ValidName(name) {
		return Record{}, ErrBadName
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return Record{}, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	rec := Record{Kind: KindTable, Seq: s.seq, Table: name, Time: s.now().UTC()}
	s.seq++
	s.applyLocked(rec)
	s.appendLocked(rec)
	return rec, nil
}

// Tables returns every registration in registration order — the
// deterministic listing GET /tables serves.
func (s *Store) Tables() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.order))
	for i, name := range s.order {
		out[i] = s.tables[name].rec
	}
	return out
}

// Head returns the table's latest snapshot (false when the table is
// unregistered or has none yet).
func (s *Store) Head(table string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[table]
	if !ok || len(ts.snaps) == 0 {
		return Record{}, false
	}
	return ts.snaps[len(ts.snaps)-1], true
}

// Snapshot returns one snapshot's lineage record by id.
func (s *Store) Snapshot(table, id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[table]
	if !ok {
		return Record{}, false
	}
	for _, snap := range ts.snaps {
		if snap.SnapshotID == id {
			return snap, true
		}
	}
	return Record{}, false
}

// AddSnapshot appends a pushed snapshot to the table's lineage: the new
// snapshot record (with its content-derived id) plus the parent it chains
// from (hasParent=false for the table's first snapshot).
func (s *Store) AddSnapshot(table, blob, op string, records int, schema []string) (snap, parent Record, hasParent bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[table]
	if !ok {
		return Record{}, Record{}, false, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	parentID := ""
	if n := len(ts.snaps); n > 0 {
		parent = ts.snaps[n-1]
		parentID = parent.SnapshotID
		hasParent = true
	}
	snap = Record{
		Kind:       KindSnapshot,
		Seq:        s.seq,
		Table:      table,
		Time:       s.now().UTC(),
		SnapshotID: snapshotID(table, parentID, blob),
		ParentID:   parentID,
		Blob:       blob,
		Op:         op,
		Records:    records,
		Schema:     append([]string(nil), schema...),
	}
	s.seq++
	s.applyLocked(snap)
	s.appendLocked(snap)
	return snap, parent, hasParent, nil
}

// StartStep journals a pending explanation step for the snapshot,
// recording the job that will run it.
func (s *Store) StartStep(table, snapshotID, parentID, jobID string) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[table]; !ok {
		return Record{}, fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	rec := Record{
		Kind:       KindStep,
		Seq:        s.seq,
		Table:      table,
		Time:       s.now().UTC(),
		SnapshotID: snapshotID,
		ParentID:   parentID,
		Status:     StepPending,
		JobID:      jobID,
	}
	s.seq++
	s.applyLocked(rec)
	s.appendLocked(rec)
	return rec, nil
}

// FinishStep lands a step's terminal catalog state: StepExplained with
// its summary, or StepFailed with the error message. The journal gets a
// full superseding line (last line per key wins on replay).
func (s *Store) FinishStep(table, snapshotID string, status StepStatus, errMsg string, summary *StepSummary) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTable, table)
	}
	rec, ok := ts.steps[snapshotID]
	if !ok {
		return fmt.Errorf("catalog: no step for snapshot %s", snapshotID)
	}
	rec.Seq = s.seq
	s.seq++
	rec.Time = s.now().UTC()
	rec.Status = status
	rec.Error = errMsg
	rec.Summary = summary
	ts.steps[snapshotID] = rec
	s.appendLocked(rec)
	return nil
}

// History returns the table's full stored chain: its registration, every
// snapshot in push order, and each snapshot's step (absent for the first
// snapshot) aligned to the same order.
func (s *Store) History(table string) (reg Record, snaps []Record, steps []Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, found := s.tables[table]
	if !found {
		return Record{}, nil, nil, false
	}
	snaps = append([]Record(nil), ts.snaps...)
	for _, snap := range ts.snaps {
		if step, has := ts.steps[snap.SnapshotID]; has {
			steps = append(steps, step)
		}
	}
	return ts.rec, snaps, steps, true
}

// Metrics is a point-in-time snapshot of the catalog's gauges.
type Metrics struct {
	// Tables and Snapshots are current totals across the whole catalog.
	Tables, Snapshots int
	// StepsPending, StepsExplained and StepsFailed count steps by their
	// catalog status (pending includes steps whose job already landed a
	// terminal state the catalog did not record, e.g. cancellations).
	StepsPending, StepsExplained, StepsFailed int
	// JournalError is the latched first journal write failure ("" while
	// durable or in-memory).
	JournalError string
}

// Metrics returns the current snapshot.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{Tables: len(s.order)}
	if s.journalErr != nil {
		m.JournalError = s.journalErr.Error()
	}
	for _, name := range s.order {
		ts := s.tables[name]
		m.Snapshots += len(ts.snaps)
		for _, snap := range ts.snaps {
			step, ok := ts.steps[snap.SnapshotID]
			if !ok {
				continue
			}
			switch step.Status {
			case StepExplained:
				m.StepsExplained++
			case StepFailed:
				m.StepsFailed++
			default:
				m.StepsPending++
			}
		}
	}
	return m
}

// Close closes the journal and surfaces any latched write failure.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jrnl != nil {
		if err := s.jrnl.Close(); err != nil && s.journalErr == nil {
			s.journalErr = err
		}
		s.jrnl = nil
	}
	return s.journalErr
}
