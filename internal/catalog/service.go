package catalog

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// JobKind marks a job record as a catalog chain step; the daemon's runner
// dispatches records carrying it to Service.RunStep.
const JobKind = "catalog"

// maxFieldBytes caps each non-file multipart value (op tag, async flag)
// and the POST /tables registration body.
const maxFieldBytes = 1 << 20

// Config bundles the service dependencies. Explainer and Jobs are shared
// with the daemon's /explain path, so catalog steps ride the same worker
// pool, blob store and per-table affinity.
type Config struct {
	// Dir roots the catalog journal; empty means in-memory (no crash
	// durability — lineage dies with the process, like an in-memory job
	// store).
	Dir string
	// Explainer runs every chain step; its options (and seed) pin the
	// chain's determinism.
	Explainer *affidavit.Explainer
	// Jobs is the queue catalog steps are submitted to and the blob store
	// pushed snapshots are spooled into.
	Jobs *jobs.Store
	// MaxRecords caps each pushed snapshot's record count (≤ 0 =
	// unlimited).
	MaxRecords int
	// MaxSnapshotBytes caps each pushed snapshot's raw byte volume (≤ 0 =
	// unlimited).
	MaxSnapshotBytes int64
	// Now is the clock for journaled timestamps; nil means time.Now.
	Now func() time.Time
}

// chainState is one registered table's live warm-chain state: the session
// whose internal head is the snapshot headID, plus the head's interned
// table so a broken chain (failed step, cancelled run) can re-seed
// without a blob round-trip.
type chainState struct {
	sess      *affidavit.Session
	headID    string
	headTable *affidavit.Table
}

// Service is the catalog's HTTP surface and step runner. One instance
// serves /tables and executes every catalog job the daemon's pool
// dispatches back to it.
type Service struct {
	cfg   Config
	store *Store

	// pushMu serializes the lineage append + job submission of concurrent
	// pushes, so each snapshot's parent is exactly the previous push.
	// Spooling and ingest run outside it.
	pushMu sync.Mutex

	mu           sync.Mutex
	chains       map[string]*chainState
	schemaResets int64
}

// NewService opens the catalog store under cfg.Dir and returns the
// service.
func NewService(cfg Config) (*Service, error) {
	if cfg.Explainer == nil || cfg.Jobs == nil {
		return nil, fmt.Errorf("catalog: Config needs an Explainer and a job Store")
	}
	store, err := OpenStore(cfg.Dir, cfg.Now)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, store: store, chains: make(map[string]*chainState)}, nil
}

// Store exposes the underlying catalog store (metrics, tests).
func (s *Service) Store() *Store { return s.store }

// Close closes the catalog journal. Close the worker pool first, so no
// step finishes after the journal is gone.
func (s *Service) Close() error { return s.store.Close() }

// SchemaResets counts chain re-seeds caused by mid-chain schema changes.
func (s *Service) SchemaResets() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schemaResets
}

// Routes lists the catalog's route patterns for documentation tooling
// (the docs-drift check unions these with the daemon's mux literals).
func Routes() []string {
	return []string{
		"/tables",
		"/tables/{name}",
		"/tables/{name}/snapshots",
		"/tables/{name}/history",
		"/tables/{name}/trends",
	}
}

// ServeHTTP routes the catalog surface:
//
//	POST /tables                     register a table ({"name": ...})
//	GET  /tables                     list registrations
//	GET  /tables/{name}              one table + its snapshot lineage
//	POST /tables/{name}/snapshots    push a snapshot (multipart "snapshot")
//	GET  /tables/{name}/history      drift timeline (snapshots + steps)
//	GET  /tables/{name}/trends       trend analytics over the chain
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/tables")
	rest = strings.TrimPrefix(rest, "/")
	if rest == "" {
		s.handleTables(w, r)
		return
	}
	name, sub, _ := strings.Cut(rest, "/")
	switch sub {
	case "":
		s.handleTable(w, r, name)
	case "snapshots":
		s.handlePush(w, r, name)
	case "history":
		s.handleHistory(w, r, name)
	case "trends":
		s.handleTrends(w, r, name)
	default:
		http.NotFound(w, r)
	}
}

// tableView is one registration row of GET /tables.
type tableView struct {
	Name         string    `json:"name"`
	RegisteredAt time.Time `json:"registered_at"`
	Snapshots    int       `json:"snapshots"`
	Head         string    `json:"head,omitempty"`
}

// snapshotView is one lineage row: the journaled snapshot record minus
// catalog-internal bookkeeping.
type snapshotView struct {
	SnapshotID string    `json:"snapshot_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Blob       string    `json:"blob"`
	Op         string    `json:"op,omitempty"`
	Records    int       `json:"records"`
	Schema     []string  `json:"schema"`
	PushedAt   time.Time `json:"pushed_at"`
}

// stepView is one explanation step of the drift timeline. Status is the
// catalog status overlaid with the live job state while the step is in
// flight ("queued", "running"), so the timeline never shows a stale
// "pending" for a job that already failed or was cancelled.
type stepView struct {
	SnapshotID string       `json:"snapshot_id"`
	ParentID   string       `json:"parent_id"`
	Status     string       `json:"status"`
	JobID      string       `json:"job_id"`
	Job        string       `json:"job"`
	Result     string       `json:"result,omitempty"`
	Error      string       `json:"error,omitempty"`
	UpdatedAt  time.Time    `json:"updated_at"`
	Summary    *StepSummary `json:"summary,omitempty"`
}

// historyResponse is GET /tables/{name}/history: the stored chain as
// fixed structs in push order — byte-stable across restarts because every
// field replays from the journal.
type historyResponse struct {
	Table        string         `json:"table"`
	RegisteredAt time.Time      `json:"registered_at"`
	Snapshots    []snapshotView `json:"snapshots"`
	Steps        []stepView     `json:"steps"`
}

func viewSnapshot(rec Record) snapshotView {
	return snapshotView{
		SnapshotID: rec.SnapshotID,
		ParentID:   rec.ParentID,
		Blob:       rec.Blob,
		Op:         rec.Op,
		Records:    rec.Records,
		Schema:     rec.Schema,
		PushedAt:   rec.Time,
	}
}

// liveStepStatus resolves a step's serving status: terminal catalog
// states stand; a catalog-pending step reports its job's live state.
func (s *Service) liveStepStatus(rec Record) (status, errMsg string) {
	if rec.Status != StepPending {
		return string(rec.Status), rec.Error
	}
	if job, ok := s.cfg.Jobs.Get(rec.JobID); ok {
		jr := job.Record()
		switch jr.State {
		case jobs.StatePending:
			return "queued", ""
		case jobs.StateRunning:
			return "running", ""
		case jobs.StateError:
			return "failed", jr.Error
		case jobs.StateCancelled:
			return "cancelled", ""
		}
	}
	return string(StepPending), ""
}

func (s *Service) viewStep(rec Record) stepView {
	status, errMsg := s.liveStepStatus(rec)
	v := stepView{
		SnapshotID: rec.SnapshotID,
		ParentID:   rec.ParentID,
		Status:     status,
		JobID:      rec.JobID,
		Job:        "/jobs/" + rec.JobID,
		Error:      errMsg,
		UpdatedAt:  rec.Time,
		Summary:    rec.Summary,
	}
	if rec.Status == StepExplained {
		v.Result = "/jobs/" + rec.JobID + "/result"
	}
	return v
}

// writeJSON encodes v as indented JSON, matching the daemon's encoding.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleTables serves POST /tables (register) and GET /tables (list).
func (s *Service) handleTables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		recs := s.store.Tables()
		views := make([]tableView, len(recs))
		for i, rec := range recs {
			v := tableView{Name: rec.Table, RegisteredAt: rec.Time}
			if head, ok := s.store.Head(rec.Table); ok {
				v.Head = head.SnapshotID
			}
			_, snaps, _, _ := s.store.History(rec.Table)
			v.Snapshots = len(snaps)
			views[i] = v
		}
		writeJSON(w, http.StatusOK, struct {
			Tables []tableView `json:"tables"`
		}{views})
	case http.MethodPost:
		name, err := registrationName(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec, err := s.store.Register(name)
		switch {
		case errors.Is(err, ErrBadName):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, ErrTableExists):
			http.Error(w, err.Error(), http.StatusConflict)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			writeJSON(w, http.StatusCreated, tableView{Name: rec.Table, RegisteredAt: rec.Time})
		}
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// registrationName extracts the table name from a POST /tables request:
// JSON {"name": ...}, a form value, or ?name=.
func registrationName(r *http.Request) (string, error) {
	if v := r.URL.Query().Get("name"); v != "" {
		return v, nil
	}
	ct := r.Header.Get("Content-Type")
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFieldBytes))
	if err != nil {
		return "", fmt.Errorf("reading body: %w", err)
	}
	if strings.HasPrefix(ct, "application/json") {
		var req struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("parsing body: %w", err)
		}
		if req.Name == "" {
			return "", fmt.Errorf(`missing "name"`)
		}
		return req.Name, nil
	}
	if name := strings.TrimSpace(string(body)); name != "" {
		return name, nil
	}
	return "", fmt.Errorf(`missing "name" (JSON body {"name": ...} or ?name=)`)
}

// handleTable serves GET /tables/{name}: the registration plus its full
// snapshot lineage.
func (s *Service) handleTable(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, _, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	views := make([]snapshotView, len(snaps))
	for i, snap := range snaps {
		views[i] = viewSnapshot(snap)
	}
	writeJSON(w, http.StatusOK, struct {
		Name         string         `json:"name"`
		RegisteredAt time.Time      `json:"registered_at"`
		Head         string         `json:"head,omitempty"`
		Snapshots    []snapshotView `json:"snapshots"`
	}{reg.Table, reg.Time, headID(snaps), views})
}

func headID(snaps []Record) string {
	if len(snaps) == 0 {
		return ""
	}
	return snaps[len(snaps)-1].SnapshotID
}

// handleHistory serves GET /tables/{name}/history: the drift timeline.
func (s *Service) handleHistory(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, steps, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	resp := historyResponse{
		Table:        reg.Table,
		RegisteredAt: reg.Time,
		Snapshots:    make([]snapshotView, len(snaps)),
		Steps:        make([]stepView, len(steps)),
	}
	for i, snap := range snaps {
		resp.Snapshots[i] = viewSnapshot(snap)
	}
	for i, step := range steps {
		resp.Steps[i] = s.viewStep(step)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrends serves GET /tables/{name}/trends.
func (s *Service) handleTrends(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg, snaps, steps, ok := s.store.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.computeTrends(reg, snaps, steps))
}

// StepPayload is the non-durable state a live push hands RunStep: the
// already-interned next snapshot. Journal-replayed steps run with a nil
// payload and re-ingest from the blob store.
type StepPayload struct {
	// Next is the pushed snapshot's interned table.
	Next *affidavit.Table
}

// handlePush serves POST /tables/{name}/snapshots: the multipart file
// part "snapshot" (CSV, first row = header) is spooled into the job blob
// store and interned from the spool — the /explain miss path; a push
// always ingests, because the chain needs the table. Optional values:
// "op" (an operation tag journaled into the lineage) and "async" ("1"
// answers 202 with the job id instead of waiting for the step's
// explanation).
//
// The first push of a table seeds the chain (no explanation to run);
// every later push submits a catalog step job that explains
// parent→snapshot with the table's warm session.
func (s *Service) handlePush(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx := r.Context()
	up, tab, hash, err := s.readPush(ctx, r, name)
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired during snapshot ingest", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Serialize lineage append + job submission so each snapshot's parent
	// is exactly the previous push; ingest above runs concurrently.
	s.pushMu.Lock()
	snap, parent, hasParent, err := s.store.AddSnapshot(name, hash, up.Value("op"), tab.Len(), tab.Schema().Attrs())
	if err != nil {
		s.pushMu.Unlock()
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	if !hasParent {
		// Chain baseline: seed the warm session now, so the next push's
		// step starts warm without a blob round-trip.
		s.mu.Lock()
		s.chains[name] = &chainState{sess: s.cfg.Explainer.Session(tab), headID: snap.SnapshotID, headTable: tab}
		s.mu.Unlock()
		s.pushMu.Unlock()
		w.Header().Set("X-Affidavit-Snapshot-Id", snap.SnapshotID)
		writeJSON(w, http.StatusCreated, struct {
			Snapshot snapshotView `json:"snapshot"`
		}{viewSnapshot(snap)})
		return
	}
	job, _, err := s.cfg.Jobs.Submit(jobs.Spec{
		Kind:       JobKind,
		Table:      name,
		Format:     "json",
		SourceBlob: parent.Blob,
		TargetBlob: snap.Blob,
		SnapshotID: snap.SnapshotID,
		ParentID:   snap.ParentID,
		Payload:    &StepPayload{Next: tab},
	})
	if err != nil {
		s.pushMu.Unlock()
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if _, err := s.store.StartStep(name, snap.SnapshotID, snap.ParentID, job.ID()); err != nil {
		s.pushMu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.pushMu.Unlock()
	w.Header().Set("X-Affidavit-Snapshot-Id", snap.SnapshotID)
	w.Header().Set("X-Affidavit-Job-Id", job.ID())
	if up.Value("async") == "1" {
		writeJSON(w, http.StatusAccepted, struct {
			Snapshot snapshotView `json:"snapshot"`
			JobID    string       `json:"job_id"`
			Status   string       `json:"status"`
			Result   string       `json:"result"`
		}{viewSnapshot(snap), job.ID(), "/jobs/" + job.ID(), "/jobs/" + job.ID() + "/result"})
		return
	}
	rec, err := s.cfg.Jobs.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired while waiting; poll /jobs/"+job.ID(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	s.writeStepOutcome(w, rec)
}

// writeStepOutcome renders a terminal step job as the sync push response:
// the stored explanation bytes, a 503 + partial stats on deadline, or the
// error text (422 for explain refusals such as schema changes).
func (s *Service) writeStepOutcome(w http.ResponseWriter, rec jobs.Record) {
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	switch rec.State {
	case jobs.StateCompleted:
		body, rec2, err := s.cfg.Jobs.Result(rec.ID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", rec2.ContentType)
		w.Write(body)
	case jobs.StateError:
		if rec.Deadline {
			var st affidavit.JSONStats
			if len(rec.Stats) > 0 {
				json.Unmarshal(rec.Stats, &st)
			}
			st.Cancelled = false
			writeJSON(w, http.StatusServiceUnavailable, struct {
				Error string              `json:"error"`
				Table string              `json:"table"`
				Stats affidavit.JSONStats `json:"stats"`
			}{rec.Error, rec.Table, st})
			return
		}
		http.Error(w, rec.Error, http.StatusUnprocessableEntity)
	case jobs.StateCancelled:
		http.Error(w, "step job "+rec.ID+" was cancelled", http.StatusConflict)
	default:
		http.Error(w, "step job "+rec.ID+" is "+string(rec.State), http.StatusInternalServerError)
	}
}

// readPush spools the push body, interns the "snapshot" part and commits
// its blob; the returned body only serves form values from then on. A
// rejected push leaves no blob behind. Once the chain has a session the
// snapshot interns straight into its pool; a first push (and a push that
// finds the chain re-seeded by the time its step runs) reads into private
// dictionaries and the step translates them.
func (s *Service) readPush(ctx context.Context, r *http.Request, name string) (*upload.Body, *affidavit.Table, string, error) {
	up, err := upload.Spool(r, s.cfg.Jobs.Blobs(), upload.Limits{
		FieldBytes:    maxFieldBytes,
		SnapshotBytes: s.cfg.MaxSnapshotBytes,
		Records:       s.cfg.MaxRecords,
	}, "snapshot")
	if err != nil {
		return nil, nil, "", err
	}
	defer up.Discard()
	read := upload.Reader(s.cfg.Explainer.ReadSourceNamed)
	s.mu.Lock()
	if cs := s.chains[name]; cs != nil && cs.sess != nil {
		read = cs.sess.ReadSource
	}
	s.mu.Unlock()
	tab, err := up.Ingest(ctx, read, "snapshot")
	if err != nil {
		return nil, nil, "", err
	}
	hash, err := up.Files["snapshot"].Commit()
	if err != nil {
		return nil, nil, "", fmt.Errorf("storing snapshot: %w", err)
	}
	return up, tab, hash, nil
}

// RunStep executes one catalog chain step: explain parent→snapshot on the
// table's warm session, journal the step's terminal catalog state, and
// render the durable result exactly like a /explain json job — so a
// chain of N pushes stores bytes identical to N−1 manual warm
// ExplainNext calls over the same pair sequence.
//
// Chain-state rules: a successful step advances the session to the new
// snapshot (the next step starts warm). A failed, refused or interrupted
// step re-seeds a fresh session at the new snapshot — the chain continues
// from there, each later pair still explained, with one cold step paid.
// A schema change mid-chain is a refusal: the step fails with a clear
// error and the chain continues from the new schema.
func (s *Service) RunStep(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	var next *affidavit.Table
	if p, ok := payload.(*StepPayload); ok && p != nil {
		next = p.Next
	}
	if next == nil {
		// Journal-replayed (or crash-requeued) step: re-intern the pushed
		// snapshot from the blob store.
		var err error
		if next, err = s.ingestBlob(ctx, rec.TargetBlob); err != nil {
			return nil, err
		}
	}
	snap, ok := s.store.Snapshot(rec.Table, rec.SnapshotID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown snapshot %s", rec.SnapshotID)
	}
	parent, ok := s.store.Snapshot(rec.Table, rec.ParentID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown parent %s", rec.ParentID)
	}
	if !equalSchema(snap.Schema, parent.Schema) {
		// Schema changed mid-chain: refuse the explanation with a clear
		// error and continue the chain from the new schema.
		msg := fmt.Sprintf(
			"schema changed from %v to %v: explanation refused; the chain continues from snapshot %s with the new schema",
			parent.Schema, snap.Schema, snap.SnapshotID)
		s.resetChain(rec.Table, snap.SnapshotID, next, true)
		s.store.FinishStep(rec.Table, snap.SnapshotID, StepFailed, msg, nil)
		return nil, errors.New(msg)
	}
	sess := s.sessionFor(ctx, rec, parent)
	if sess == nil {
		// Only reachable when the parent blob could not be re-ingested.
		return nil, jobs.Transient(fmt.Errorf("catalog: parent snapshot %s not reconstructable yet", rec.ParentID))
	}
	res, err := sess.ExplainNextContext(ctx, next)
	if err != nil {
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		s.store.FinishStep(rec.Table, snap.SnapshotID, StepFailed, err.Error(), nil)
		return nil, err
	}
	out := &jobs.Outcome{}
	if stats, merr := json.Marshal(affidavit.StatsJSON(res.Stats)); merr == nil {
		out.Stats = stats
	}
	if res.Stats.Cancelled {
		// Interrupted mid-search: the pool decides between cancel,
		// deadline and shutdown-requeue from the context cause. The
		// session's internal head already advanced, so re-seed at the new
		// snapshot; the catalog step stays pending and the timeline
		// overlays the job's terminal state.
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		out.Cancelled = true
		return out, nil
	}
	s.advanceChain(rec.Table, sess, snap.SnapshotID, next)
	summary := summarizeStep(res)
	if err := s.store.FinishStep(rec.Table, snap.SnapshotID, StepExplained, "", summary); err != nil {
		return nil, err
	}
	body, merr := res.JSON(rec.Table)
	if merr != nil {
		return nil, merr
	}
	out.Body = append(body, '\n')
	out.ContentType = "application/json"
	return out, nil
}

// sessionFor returns the session to explain rec's pair on: the live chain
// session when its head matches the step's parent, a session re-seeded
// from the retained head table, or — after a restart — one re-seeded from
// the parent's blob. Returns nil only when the blob is unavailable.
func (s *Service) sessionFor(ctx context.Context, rec jobs.Record, parent Record) *affidavit.Session {
	s.mu.Lock()
	cs := s.chains[rec.Table]
	if cs == nil {
		cs = &chainState{}
		s.chains[rec.Table] = cs
	}
	if cs.sess != nil && cs.headID == rec.ParentID {
		sess := cs.sess
		s.mu.Unlock()
		return sess
	}
	headTable := cs.headTable
	headMatches := cs.headID == rec.ParentID && headTable != nil
	s.mu.Unlock()
	if headMatches {
		sess := s.cfg.Explainer.Session(headTable)
		s.mu.Lock()
		cs.sess = sess
		s.mu.Unlock()
		return sess
	}
	parentTab, err := s.ingestBlob(ctx, parent.Blob)
	if err != nil {
		return nil
	}
	sess := s.cfg.Explainer.Session(parentTab)
	s.mu.Lock()
	cs.sess = sess
	cs.headID = rec.ParentID
	cs.headTable = parentTab
	s.mu.Unlock()
	return sess
}

// advanceChain moves the table's chain head to the explained snapshot,
// keeping the warm session.
func (s *Service) advanceChain(table string, sess *affidavit.Session, headID string, head *affidavit.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains[table] = &chainState{sess: sess, headID: headID, headTable: head}
}

// resetChain re-seeds the table's chain at the given snapshot with a
// fresh session — the continue-from-here semantics of failed, refused and
// interrupted steps.
func (s *Service) resetChain(table, headID string, head *affidavit.Table, schemaChange bool) {
	sess := s.cfg.Explainer.Session(head)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains[table] = &chainState{sess: sess, headID: headID, headTable: head}
	if schemaChange {
		s.schemaResets++
	}
}

// ingestBlob re-interns a journaled snapshot upload (the blob is simply
// absent under an in-memory job store, e.g. after a cancel).
func (s *Service) ingestBlob(ctx context.Context, hash string) (*affidavit.Table, error) {
	return upload.IngestBlob(ctx, s.cfg.Explainer.ReadSourceNamed, s.cfg.Jobs.Blobs(), hash, "snapshot")
}

func equalSchema(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
