package main

// The snapshot-history catalog's HTTP surface and step runner: /tables
// registrations, snapshot pushes that run the /explain upload → job →
// outcome path, the drift timeline and trends read from the catalog
// journal.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// catalogJobKind marks a job record as a catalog chain step; runJob
// explains it on the table's chain session.
const catalogJobKind = "catalog"

// chainState is one registered table's live warm chain: the session
// whose chain head is the snapshot headID.
type chainState struct {
	sess   *affidavit.Session
	headID string
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

// stepView is one explanation step of the drift timeline, under the
// status catalog.ServedStatus gives it.
type stepView struct {
	SnapshotID string               `json:"snapshot_id"`
	ParentID   string               `json:"parent_id"`
	Status     string               `json:"status"`
	JobID      string               `json:"job_id"`
	Job        string               `json:"job"`
	Result     string               `json:"result,omitempty"`
	Error      string               `json:"error,omitempty"`
	UpdatedAt  time.Time            `json:"updated_at"`
	Summary    *catalog.StepSummary `json:"summary,omitempty"`
}

// historyResponse is GET /tables/{name}/history: the stored chain as
// fixed structs in push order — byte-stable across restarts because every
// field replays from the journals.
type historyResponse struct {
	Table        string         `json:"table"`
	RegisteredAt time.Time      `json:"registered_at"`
	Snapshots    []snapshotView `json:"snapshots"`
	Steps        []stepView     `json:"steps"`
}

func viewSnapshot(rec catalog.Record) snapshotView {
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

func viewSnapshots(recs []catalog.Record) []snapshotView {
	views := make([]snapshotView, len(recs))
	for i, rec := range recs {
		views[i] = viewSnapshot(rec)
	}
	return views
}

// jobRecord is the catalog's view of the job store: a job's live record.
func (s *server) jobRecord(id string) (jobs.Record, bool) {
	job, ok := s.store.Get(id)
	if !ok {
		return jobs.Record{}, false
	}
	return job.Record(), true
}

func (s *server) viewStep(rec catalog.Record) stepView {
	status, errMsg := catalog.ServedStatus(rec, s.jobRecord)
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
	if rec.Status == catalog.StepExplained {
		v.Result = "/jobs/" + rec.JobID + "/result"
	}
	return v
}

// handleTableList serves GET /tables: every registration in registration
// order.
func (s *server) handleTableList(w http.ResponseWriter, r *http.Request) {
	recs := s.catalog.Tables()
	views := make([]tableView, len(recs))
	for i, rec := range recs {
		_, snaps, _, _ := s.catalog.History(rec.Table)
		views[i] = tableView{Name: rec.Table, RegisteredAt: rec.Time, Snapshots: len(snaps), Head: headID(snaps)}
	}
	writeIndentJSON(w, http.StatusOK, struct {
		Tables []tableView `json:"tables"`
	}{views})
}

// handleRegister serves POST /tables: register the table named by a JSON
// body {"name": ...}, ?name=, or the bare body.
func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name, err := s.registrationName(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec, err := s.catalog.Register(name)
	switch {
	case errors.Is(err, catalog.ErrBadName):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, catalog.ErrTableExists):
		http.Error(w, err.Error(), http.StatusConflict)
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	default:
		writeIndentJSON(w, http.StatusCreated, tableView{Name: rec.Table, RegisteredAt: rec.Time})
	}
}

// registrationName extracts the table name from a POST /tables request:
// ?name=, a JSON {"name": ...} body, or the bare name as the body.
func (s *server) registrationName(r *http.Request) (string, error) {
	if v := r.URL.Query().Get("name"); v != "" {
		return v, nil
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxUpload))
	if err != nil {
		return "", fmt.Errorf("reading body: %w", err)
	}
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
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

// history reads the named table's stored chain, answering 404 when the
// table is not registered.
func (s *server) history(w http.ResponseWriter, r *http.Request) (reg catalog.Record, snaps, steps []catalog.Record, ok bool) {
	name := r.PathValue("name")
	reg, snaps, steps, ok = s.catalog.History(name)
	if !ok {
		http.Error(w, "no table "+name, http.StatusNotFound)
	}
	return reg, snaps, steps, ok
}

// handleTable serves GET /tables/{name}: the registration plus its full
// snapshot lineage.
func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	reg, snaps, _, ok := s.history(w, r)
	if !ok {
		return
	}
	writeIndentJSON(w, http.StatusOK, struct {
		Name         string         `json:"name"`
		RegisteredAt time.Time      `json:"registered_at"`
		Head         string         `json:"head,omitempty"`
		Snapshots    []snapshotView `json:"snapshots"`
	}{reg.Table, reg.Time, headID(snaps), viewSnapshots(snaps)})
}

func headID(snaps []catalog.Record) string {
	if len(snaps) == 0 {
		return ""
	}
	return snaps[len(snaps)-1].SnapshotID
}

// handleHistory serves GET /tables/{name}/history: the drift timeline.
func (s *server) handleHistory(w http.ResponseWriter, r *http.Request) {
	reg, snaps, steps, ok := s.history(w, r)
	if !ok {
		return
	}
	resp := historyResponse{
		Table:        reg.Table,
		RegisteredAt: reg.Time,
		Snapshots:    viewSnapshots(snaps),
		Steps:        make([]stepView, len(steps)),
	}
	for i, step := range steps {
		resp.Steps[i] = s.viewStep(step)
	}
	writeIndentJSON(w, http.StatusOK, resp)
}

// handleTrends serves GET /tables/{name}/trends.
func (s *server) handleTrends(w http.ResponseWriter, r *http.Request) {
	reg, snaps, steps, ok := s.history(w, r)
	if !ok {
		return
	}
	writeIndentJSON(w, http.StatusOK, catalog.ComputeTrends(reg, snaps, steps, s.jobRecord))
}

// handlePush serves POST /tables/{name}/snapshots: the multipart file
// part "snapshot" (CSV, first row = header) goes the /explain miss path —
// spooled, interned into the table's chain session, its blob committed —
// because the chain always needs the table. Optional values: "op" (an
// operation tag journaled into the lineage) and "async" ("1" answers 202
// with the job id instead of waiting for the step's explanation).
//
// The first push of a table seeds the chain (no explanation to run);
// every later push submits a catalog step job that explains
// parent→snapshot with the table's warm session, and a sync push answers
// with that job's outcome exactly like /explain.
func (s *server) handlePush(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Checked before anything is spooled, so a push to an unknown table
	// leaves no blob behind.
	if !s.catalog.Has(name) {
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	ctx := r.Context()
	up, err := upload.Spool(r, s.store.Blobs(), s.uploadLimits(), "snapshot")
	if err != nil {
		badUpload(ctx, w, err)
		return
	}
	defer up.Discard()
	// Once the chain has a session the snapshot interns straight into its
	// pool; a first push (and a push that finds the chain re-seeded by the
	// time its step runs) reads into private dictionaries and the step
	// translates them.
	read := upload.Reader(s.ex.ReadSourceNamed)
	if sess := s.chain(name).sess; sess != nil {
		read = sess.ReadSource
	}
	tabs, trec, err := s.intern(ctx, up, read, "snapshot")
	if err != nil {
		badUpload(ctx, w, err)
		return
	}
	tab := tabs[0]
	// Serialize lineage append + job submission so each snapshot's parent
	// is exactly the previous push; ingest above runs concurrently.
	s.pushMu.Lock()
	snap, parent, hasParent, err := s.catalog.AddSnapshot(name, up.Files["snapshot"].Sum(), up.Value("op"), tab.Len(), tab.Schema().Attrs())
	if err != nil {
		s.pushMu.Unlock()
		http.Error(w, "no table "+name, http.StatusNotFound)
		return
	}
	w.Header().Set("X-Affidavit-Snapshot-Id", snap.SnapshotID)
	if !hasParent {
		// Chain baseline: seed the warm session now, so the next push's
		// step starts warm without a blob round-trip.
		s.setChain(name, s.ex.Session(tab), snap.SnapshotID)
		s.pushMu.Unlock()
		writeIndentJSON(w, http.StatusCreated, struct {
			Snapshot snapshotView `json:"snapshot"`
		}{viewSnapshot(snap)})
		return
	}
	job, _, err := s.store.Submit(jobs.Spec{
		Addr:       snap.SnapshotID,
		Kind:       catalogJobKind,
		Table:      name,
		Format:     "json",
		SourceBlob: parent.Blob,
		TargetBlob: snap.Blob,
		SnapshotID: snap.SnapshotID,
		ParentID:   snap.ParentID,
		Payload:    &jobPayload{tgt: tab, trace: trec},
	})
	s.pushMu.Unlock()
	if err != nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("X-Affidavit-Job-Id", job.ID())
	if up.Value("async") == "1" {
		writeIndentJSON(w, http.StatusAccepted, struct {
			Snapshot snapshotView `json:"snapshot"`
			JobID    string       `json:"job_id"`
			Status   string       `json:"status"`
			Result   string       `json:"result"`
		}{viewSnapshot(snap), job.ID(), "/jobs/" + job.ID(), "/jobs/" + job.ID() + "/result"})
		return
	}
	s.waitOutcome(ctx, w, job, false)
}

// rollForward queues the job of every step that is pending with no job
// record behind it: a snapshot with a parent, no step line and no job. A
// push refused with 503 after its snapshot became the chain head leaves
// one, which would otherwise stay pending forever. It runs before the
// pool starts; each step job has no payload, so explainStep re-ingests
// the snapshot from its blob.
func (s *server) rollForward() error {
	for _, reg := range s.catalog.Tables() {
		_, snaps, steps, _ := s.catalog.History(reg.Table)
		blobs := make(map[string]string, len(snaps))
		for _, snap := range snaps {
			blobs[snap.SnapshotID] = snap.Blob
		}
		for _, step := range steps {
			if step.Status != catalog.StepPending {
				continue
			}
			if _, ok := s.store.Get(step.JobID); ok {
				continue
			}
			if _, _, err := s.store.Submit(jobs.Spec{
				Addr:       step.SnapshotID,
				Kind:       catalogJobKind,
				Table:      reg.Table,
				Format:     "json",
				SourceBlob: blobs[step.ParentID],
				TargetBlob: blobs[step.SnapshotID],
				SnapshotID: step.SnapshotID,
				ParentID:   step.ParentID,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// explainStep runs one catalog chain step: explain parent→snapshot on the
// table's chain session and journal the step in the catalog once it has
// explained (a failure stays in the job record, which ServedStatus reads).
// next is the pushed snapshot, nil when the step was replayed from the
// journal (it is re-interned from the blob store). The result renders like
// a /explain json job, so a chain of N pushes stores bytes identical to
// N−1 manual warm ExplainNext calls over the same pair sequence.
//
// Chain-state rules: a successful step advances the session to the new
// snapshot (the next step starts warm). A failed, refused or interrupted
// step — one whose parent cannot be re-ingested from its blob included —
// re-seeds a fresh session at the new snapshot: the chain continues from
// there, each later pair still explained, with one cold step paid.
// A schema change mid-chain is a refusal: the step fails with a clear
// error and the chain continues from the new schema.
func (s *server) explainStep(ctx context.Context, rec jobs.Record, next *affidavit.Table) (*affidavit.Result, error) {
	if next == nil {
		var err error
		if next, err = s.ingestBlob(ctx, rec.TargetBlob); err != nil {
			return nil, err
		}
	}
	snap, ok := s.catalog.Snapshot(rec.Table, rec.SnapshotID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown snapshot %s", rec.SnapshotID)
	}
	parent, ok := s.catalog.Snapshot(rec.Table, rec.ParentID)
	if !ok {
		return nil, fmt.Errorf("catalog: step references unknown parent %s", rec.ParentID)
	}
	if !slices.Equal(snap.Schema, parent.Schema) {
		s.resetChain(rec.Table, snap.SnapshotID, next, true)
		return nil, fmt.Errorf(
			"schema changed from %v to %v: explanation refused; the chain continues from snapshot %s with the new schema",
			parent.Schema, snap.Schema, snap.SnapshotID)
	}
	sess, err := s.chainSession(ctx, rec, parent)
	if err != nil {
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		return nil, fmt.Errorf("catalog: parent snapshot %s not reconstructable: %w; the chain continues from snapshot %s",
			rec.ParentID, err, snap.SnapshotID)
	}
	res, err := sess.ExplainNextContext(ctx, next)
	if err != nil || res.Stats.Cancelled {
		// Failed, or interrupted mid-search (the pool tells cancel,
		// deadline and shutdown-requeue apart by the context cause). The
		// session's head stayed at the parent, and the next push names this
		// snapshot as its parent, so re-seed here.
		s.resetChain(rec.Table, snap.SnapshotID, next, false)
		return res, err
	}
	s.setChain(rec.Table, sess, snap.SnapshotID)
	return res, s.catalog.FinishStep(rec.Table, snap.SnapshotID, catalog.StepExplained, "", catalog.SummarizeStep(res))
}

// chainSession returns the session to explain rec's pair on: the live
// chain session when its head is the step's parent, else — after a
// restart or when steps ran out of order — a session seeded from the
// parent's blob. It fails only when that blob cannot be re-ingested.
func (s *server) chainSession(ctx context.Context, rec jobs.Record, parent catalog.Record) (*affidavit.Session, error) {
	if cs := s.chain(rec.Table); cs.sess != nil && cs.headID == rec.ParentID {
		return cs.sess, nil
	}
	parentTab, err := s.ingestBlob(ctx, parent.Blob)
	if err != nil {
		return nil, err
	}
	sess := s.ex.Session(parentTab)
	s.setChain(rec.Table, sess, rec.ParentID)
	return sess, nil
}

// ingestBlob re-interns a journaled snapshot upload into private
// dictionaries.
func (s *server) ingestBlob(ctx context.Context, hash string) (*affidavit.Table, error) {
	return upload.IngestBlob(ctx, s.ex.ReadSourceNamed, s.store.Blobs(), hash, "snapshot")
}

// chain returns the table's live chain (the zero chainState when none).
func (s *server) chain(table string) chainState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chains[table]
}

// setChain makes sess, headed at snapshot headID, the table's live chain.
func (s *server) setChain(table string, sess *affidavit.Session, headID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains[table] = chainState{sess: sess, headID: headID}
}

// resetChain re-seeds the table's chain at the given snapshot with a
// fresh session — the continue-from-here semantics of failed, refused and
// interrupted steps.
func (s *server) resetChain(table, headID string, head *affidavit.Table, schemaChange bool) {
	sess := s.ex.Session(head)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chains[table] = chainState{sess: sess, headID: headID}
	if schemaChange {
		s.schemaResets++
	}
}
