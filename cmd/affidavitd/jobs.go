package main

// Job-subsystem glue: the runner that executes queued jobs on their
// sessions, the /jobs API surface, and the /metrics page.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// jobPayload is the non-durable state a live submission hands the
// runner: the snapshots, already interned, and the request's trace
// recorder. An /explain job carries its pair and the session whose pool
// it was interned into; a catalog step only tgt, the pushed snapshot.
// Journal-replayed jobs run without one and re-ingest from the blob store.
// The job store drops the payload when the job ends, and the upload's
// session goes with it.
type jobPayload struct {
	sess     *affidavit.Session
	src, tgt *affidavit.Table
	trace    *affidavit.TraceRecorder
}

// runJob executes one queued job: resolve the snapshots (payload or blob
// replay), explain them on the right session — a catalog step on its
// table's chain session (explainStep; worker affinity keeps one table on
// one worker, so a chain never sees concurrent steps), an /explain pair on
// its upload's own session — and render the durable result. Any error
// ends the job on this one run, and the job keeps it as its message.
func (s *server) runJob(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	p, _ := payload.(*jobPayload)
	if p == nil {
		// Replayed from the journal without a live request: the run
		// still gets a trace of its own.
		p = &jobPayload{}
		if s.cfg.traceBuffer != 0 {
			p.trace = affidavit.NewTraceRecorder()
		}
	}
	if p.trace != nil {
		p.trace.SetLabel(rec.Table)
		p.trace.SetJobID(rec.ID)
		if rec.SnapshotID != "" {
			p.trace.SetLineage(rec.SnapshotID, rec.ParentID)
		}
	}
	ctx = s.observe(ctx, p.trace)
	var res *affidavit.Result
	var err error
	if rec.Kind == catalogJobKind {
		res, err = s.explainStep(ctx, rec, p.tgt)
	} else {
		res, err = s.explainPair(ctx, rec, p)
	}
	var out *jobs.Outcome
	if err == nil {
		out, err = outcome(rec, res)
	}
	if p.trace != nil {
		// Every run retains its trace — failed, cancelled and deadline-cut
		// ones too: a truncated cost curve is exactly what a post-mortem
		// wants.
		tr := p.trace.Trace()
		if out != nil {
			out.TraceID = tr.ID
		}
		s.storeTrace(tr)
	}
	return out, err
}

// explainPair explains an /explain job's pair on the session its upload
// interned it into. A job that runs without its payload re-interns both
// blobs into a fresh session; the result does not depend on the pool.
func (s *server) explainPair(ctx context.Context, rec jobs.Record, p *jobPayload) (*affidavit.Result, error) {
	sess, src, tgt := p.sess, p.src, p.tgt
	if sess == nil {
		sess = s.ex.Session(nil)
		var err error
		if src, err = upload.IngestBlob(ctx, sess.ReadSource, s.store.Blobs(), rec.SourceBlob, "source"); err != nil {
			return nil, err
		}
		if tgt, err = upload.IngestBlob(ctx, sess.ReadSource, s.store.Blobs(), rec.TargetBlob, "target"); err != nil {
			return nil, err
		}
	}
	return sess.ExplainPairContext(ctx, src, tgt)
}

// outcome renders a finished run as its durable job outcome: the search
// statistics, plus the result in the job's format unless the run was
// interrupted.
func outcome(rec jobs.Record, res *affidavit.Result) (*jobs.Outcome, error) {
	out := &jobs.Outcome{}
	if stats, err := json.Marshal(affidavit.StatsJSON(res.Stats)); err == nil {
		out.Stats = stats
	}
	if res.Stats.Cancelled {
		out.Cancelled = true
		return out, nil
	}
	switch rec.Format {
	case "", "json":
		body, err := res.JSON(rec.Table)
		if err != nil {
			return nil, err
		}
		out.Body = append(body, '\n')
		out.ContentType = "application/json"
	case "sql":
		out.Body = []byte(res.SQL(rec.Table))
		out.ContentType = "text/plain; charset=utf-8"
	case "text":
		out.Body = []byte(res.Report())
		out.ContentType = "text/plain; charset=utf-8"
	default:
		return nil, fmt.Errorf("unknown format %q", rec.Format)
	}
	return out, nil
}

// jobView is the /jobs wire shape of one job record. Fields mirror
// jobs.Record (a fixed struct, so encoding is deterministic) plus the
// result link.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Table       string          `json:"table,omitempty"`
	Format      string          `json:"format,omitempty"`
	Kind        string          `json:"kind,omitempty"`
	SnapshotID  string          `json:"snapshot_id,omitempty"`
	ParentID    string          `json:"parent_id,omitempty"`
	Attempts    int             `json:"attempts,omitempty"`
	Requeues    int             `json:"requeues,omitempty"`
	DedupeHits  int64           `json:"dedupe_hits,omitempty"`
	Error       string          `json:"error,omitempty"`
	Deadline    bool            `json:"deadline,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	ContentType string          `json:"content_type,omitempty"`
	Stats       json.RawMessage `json:"stats,omitempty"`
	Result      string          `json:"result,omitempty"`
}

func viewOf(rec jobs.Record) jobView {
	v := jobView{
		ID:          rec.ID,
		State:       string(rec.State),
		Table:       rec.Table,
		Format:      rec.Format,
		Kind:        rec.Kind,
		SnapshotID:  rec.SnapshotID,
		ParentID:    rec.ParentID,
		Attempts:    rec.Attempts,
		Requeues:    rec.Requeues,
		DedupeHits:  rec.DedupeHits,
		Error:       rec.Error,
		Deadline:    rec.Deadline,
		TraceID:     rec.TraceID,
		ContentType: rec.ContentType,
		Stats:       rec.Stats,
	}
	if rec.State == jobs.StateCompleted {
		v.Result = "/jobs/" + rec.ID + "/result"
	}
	return v
}

// writeIndentJSON encodes v as indented JSON.
func writeIndentJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeJobAccepted answers an async submission: 202 Accepted with the
// job id and where to poll. Joining an existing job (the dedupe hit)
// looks identical — the id is the content address either way.
func (s *server) writeJobAccepted(w http.ResponseWriter, job *jobs.Job) {
	rec := job.Record()
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	writeIndentJSON(w, http.StatusAccepted, struct {
		JobID  string `json:"job_id"`
		State  string `json:"state"`
		Status string `json:"status"`
		Result string `json:"result"`
	}{
		JobID:  rec.ID,
		State:  string(rec.State),
		Status: "/jobs/" + rec.ID,
		Result: "/jobs/" + rec.ID + "/result",
	})
}

// writeJobOutcome renders a terminal job record as the sync /explain or
// catalog push response: the stored result bytes (byte-identical across
// dedupe joiners), the 503 + partial-stats answer for deadline cuts, or
// the error text.
func (s *server) writeJobOutcome(w http.ResponseWriter, rec jobs.Record, inlineTrace bool) {
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	switch rec.State {
	case jobs.StateCompleted:
		body, rec2, err := s.store.Result(rec.ID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// ?trace=1 inlines the run's retained trace into a JSON result;
		// plain responses serve the stored bytes untouched.
		if inlineTrace && (rec2.Format == "" || rec2.Format == "json") {
			if tr := s.traceByID(rec2.TraceID); tr != nil {
				body = spliceTrace(body, tr)
			}
		}
		w.Header().Set("Content-Type", rec2.ContentType)
		w.Write(body)
	case jobs.StateError:
		if rec.Deadline {
			var st affidavit.JSONStats
			if len(rec.Stats) > 0 {
				json.Unmarshal(rec.Stats, &st)
			}
			st.Cancelled = false // the 503 body's error field already says it
			writeIndentJSON(w, http.StatusServiceUnavailable, deadlineResponse{
				Error: rec.Error,
				Table: rec.Table,
				Stats: st,
			})
			return
		}
		http.Error(w, rec.Error, http.StatusUnprocessableEntity)
	case jobs.StateCancelled:
		http.Error(w, "job "+rec.ID+" was cancelled", http.StatusConflict)
	default:
		// Unreachable: Wait only returns terminal records.
		http.Error(w, "job "+rec.ID+" is "+string(rec.State), http.StatusInternalServerError)
	}
}

// spliceTrace returns a stored JSON result with tr inlined as its last
// member, "trace" — the bytes decoding the body onto JSONResult, setting
// Trace and re-encoding would give, without decoding and re-encoding the
// whole body. A body that does not end the way Result.JSON plus the stored
// newline does is served unchanged.
func spliceTrace(body []byte, tr *affidavit.Trace) []byte {
	const end = "\n}\n"
	if !bytes.HasSuffix(body, []byte(end)) {
		return body
	}
	enc, err := json.MarshalIndent(tr, "  ", "  ")
	if err != nil {
		return body
	}
	head := body[:len(body)-len(end)]
	out := make([]byte, 0, len(body)+len(enc)+16)
	out = append(out, head...)
	out = append(out, ",\n  \"trace\": "...)
	out = append(out, enc...)
	return append(out, end...)
}

// handleJobs serves GET /jobs: every job record in submission order, a
// deterministic listing.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	recs := s.store.List()
	views := make([]jobView, len(recs))
	for i, rec := range recs {
		views[i] = viewOf(rec)
	}
	writeIndentJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

// handleJob serves GET /jobs/{id}: status, stats and trace id.
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		http.Error(w, "no job "+id, http.StatusNotFound)
		return
	}
	rec := job.Record()
	w.Header().Set("X-Affidavit-Job-Id", rec.ID)
	writeIndentJSON(w, http.StatusOK, viewOf(rec))
}

// handleJobResult serves GET /jobs/{id}/result: the stored bytes.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.store.Get(id)
	if !ok {
		http.Error(w, "no job "+id, http.StatusNotFound)
		return
	}
	if rec := job.Record(); rec.State != jobs.StateCompleted {
		http.Error(w, "job "+id+" is "+string(rec.State)+", not completed", http.StatusConflict)
		return
	}
	body, rec, err := s.store.Result(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("X-Affidavit-Job-Id", rec.ID)
	if rec.TraceID != "" {
		w.Header().Set("X-Affidavit-Trace-Id", rec.TraceID)
	}
	w.Header().Set("Content-Type", rec.ContentType)
	w.Write(body)
}

// handleJobCancel serves DELETE /jobs/{id}: cancel a pending job
// terminally, a running job via its context.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, err := s.store.Cancel(id)
	if err != nil {
		http.Error(w, "no job "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("X-Affidavit-Job-Id", rec.ID)
	writeIndentJSON(w, http.StatusOK, viewOf(rec))
}

// handleMetrics serves GET /metrics: the observer-fed pipeline counters,
// then the job and catalog gauges and counters, the journal-failure
// latches and the trace ring's size in fixed order, then one runs and one
// pool gauge per live catalog chain session, sorted by table.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.ServeHTTP(w, r)
	m := s.store.Metrics()
	c := s.catalog.Metrics(s.jobRecord)
	s.mu.Lock()
	resets := s.schemaResets
	tables := make([]string, 0, len(s.chains))
	for name := range s.chains {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	sessions := make([]*affidavit.Session, len(tables))
	for i, name := range tables {
		sessions[i] = s.chains[name].sess
	}
	s.mu.Unlock()
	s.traceMu.Lock()
	retained := len(s.traces)
	s.traceMu.Unlock()
	latched := func(journalErr string) int64 {
		if journalErr != "" {
			return 1
		}
		return 0
	}
	for _, row := range []struct {
		name, typ, help string
		value           int64
	}{
		{"affidavit_jobs_queued", "gauge", "Jobs waiting in the queue.", int64(m.Queued)},
		{"affidavit_jobs_running", "gauge", "Jobs currently executing.", int64(m.Running)},
		{"affidavit_jobs_submitted_total", "counter", "Job submissions that queued a computation.", m.Submitted},
		{"affidavit_jobs_dedupe_hits_total", "counter", "Submissions served by joining an existing job.", m.DedupeHits},
		{"affidavit_jobs_completed_total", "counter", "Jobs that completed with a stored result.", m.Completed},
		{"affidavit_jobs_failed_total", "counter", "Jobs that ended in a terminal error.", m.Failed},
		{"affidavit_jobs_cancelled_total", "counter", "Jobs cancelled via DELETE /jobs/{id}.", m.Cancelled},
		{"affidavit_jobs_requeued_total", "counter", "Runs returned to the queue by crash recovery or shutdown.", m.Requeued},
		{"affidavit_catalog_tables", "gauge", "Registered catalog tables.", int64(c.Tables)},
		{"affidavit_catalog_snapshots", "gauge", "Snapshots stored across all catalog tables.", int64(c.Snapshots)},
		{"affidavit_catalog_steps_pending", "gauge", "Chain steps queued or running.", int64(c.StepsPending)},
		{"affidavit_catalog_steps_explained", "gauge", "Chain steps with a stored explanation.", int64(c.StepsExplained)},
		{"affidavit_catalog_steps_failed", "gauge", "Chain steps that ended without an explanation (refused, failed, deadline-cut or cancelled).", int64(c.StepsFailed)},
		{"affidavit_catalog_schema_resets_total", "counter", "Chain re-seeds caused by mid-chain schema changes.", resets},
		{"affidavit_jobs_journal_failed", "gauge", "1 once a job journal write has failed (latched: jobs keep running from memory), else 0.", latched(m.JournalError)},
		{"affidavit_catalog_journal_failed", "gauge", "1 once a catalog journal write has failed (latched: the catalog keeps serving from memory), else 0.", latched(c.JournalError)},
		{"affidavit_traces_retained", "gauge", "Run traces retained behind /traces.", int64(retained)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", row.name, row.help, row.name, row.typ, row.name, row.value)
	}
	fmt.Fprint(w, "# HELP affidavit_chain_runs Steps explained on each catalog table's live chain session since it was seeded.\n# TYPE affidavit_chain_runs gauge\n")
	for i, name := range tables {
		fmt.Fprintf(w, "affidavit_chain_runs{table=%q} %d\n", name, sessions[i].Runs())
	}
	fmt.Fprint(w, "# HELP affidavit_chain_pool_values Values interned in each catalog table's live chain session pool.\n# TYPE affidavit_chain_pool_values gauge\n")
	for i, name := range tables {
		_, values := sessions[i].PoolStats()
		fmt.Fprintf(w, "affidavit_chain_pool_values{table=%q} %d\n", name, values)
	}
}
