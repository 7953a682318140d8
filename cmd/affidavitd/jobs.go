package main

// Job-subsystem glue: the runner that executes queued jobs through the
// per-table session machinery, the /jobs API surface, and the job
// gauges/counters on /metrics and /stats.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// jobPayload is the non-durable state a live submission hands the
// runner: the snapshot pair, already interned into its table's session
// pool, and the request's trace recorder. Journal-replayed jobs run
// without one and re-ingest from the blob store.
type jobPayload struct {
	src, tgt *affidavit.Table
	trace    *affidavit.TraceRecorder
}

// runJob executes one queued job: resolve the snapshot pair (payload or
// blob replay), explain it on the table's session (warm chains reuse the
// previous tuple — worker affinity keeps one table on one worker, so the
// session never sees concurrent runs), and render the durable result.
// Blob-store I/O failures are transient (retried with backoff); explain
// errors such as schema mismatches are permanent.
func (s *server) runJob(ctx context.Context, rec jobs.Record, payload any) (*jobs.Outcome, error) {
	if rec.Kind == catalog.JobKind {
		return s.runCatalogStep(ctx, rec, payload)
	}
	var src, tgt *affidavit.Table
	var trec *affidavit.TraceRecorder
	if p, ok := payload.(*jobPayload); ok && p != nil {
		src, tgt, trec = p.src, p.tgt, p.trace
	}
	if trec == nil && s.cfg.traceBuffer != 0 {
		// Replayed or retried without a live request: the run still gets
		// a trace of its own.
		trec = affidavit.NewTraceRecorder()
	}
	if trec != nil {
		trec.SetLabel(rec.Table)
		trec.SetJobID(rec.ID)
		ctx = affidavit.ContextWithObserver(ctx, trec)
	}
	sess := s.session(rec.Table)
	var err error
	if src == nil || tgt == nil {
		if src, err = upload.IngestBlob(ctx, sess.ReadSource, s.store.Blobs(), rec.SourceBlob, "source"); err != nil {
			return nil, err
		}
		if tgt, err = upload.IngestBlob(ctx, sess.ReadSource, s.store.Blobs(), rec.TargetBlob, "target"); err != nil {
			return nil, err
		}
	}
	var res *affidavit.Result
	if rec.Warm {
		res, err = sess.ExplainWarmContext(ctx, src, tgt)
	} else {
		res, err = sess.ExplainPairContext(ctx, src, tgt)
	}
	if err != nil {
		return nil, err
	}
	out := &jobs.Outcome{}
	if trec != nil {
		tr := trec.Trace()
		out.TraceID = tr.ID
		// Cancelled and deadline-cut runs retain their trace too — a
		// truncated cost curve is exactly what a post-mortem wants.
		s.storeTrace(tr)
	}
	if stats, merr := json.Marshal(affidavit.StatsJSON(res.Stats)); merr == nil {
		out.Stats = stats
	}
	if res.Stats.Cancelled {
		out.Cancelled = true
		return out, nil
	}
	switch rec.Format {
	case "", "json":
		body, merr := res.JSON(rec.Table)
		if merr != nil {
			return nil, merr
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
	Warm        bool            `json:"warm,omitempty"`
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
		Warm:        rec.Warm,
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

// writeJobOutcome renders a terminal job record as the sync /explain
// response: the stored result bytes (byte-identical across dedupe
// joiners), the 503 + partial-stats answer for deadline cuts, or the
// error text.
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

// handleJobs serves GET /jobs: every job record in submission order —
// the deterministic listing the jobstore analyzer pins.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	recs := s.store.List()
	views := make([]jobView, len(recs))
	for i, rec := range recs {
		views[i] = viewOf(rec)
	}
	writeIndentJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

// handleJob serves one job: GET /jobs/{id} (status + stats + trace id),
// GET /jobs/{id}/result (the stored bytes), DELETE /jobs/{id} (cancel —
// a pending job terminally, a running job via its context).
func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" || (sub != "" && sub != "result") {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet:
		job, ok := s.store.Get(id)
		if !ok {
			http.Error(w, "no job "+id, http.StatusNotFound)
			return
		}
		rec := job.Record()
		if sub == "result" {
			if rec.State != jobs.StateCompleted {
				http.Error(w, "job "+id+" is "+string(rec.State)+", not completed", http.StatusConflict)
				return
			}
			body, rec2, err := s.store.Result(id)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("X-Affidavit-Job-Id", rec2.ID)
			if rec2.TraceID != "" {
				w.Header().Set("X-Affidavit-Trace-Id", rec2.TraceID)
			}
			w.Header().Set("Content-Type", rec2.ContentType)
			w.Write(body)
			return
		}
		w.Header().Set("X-Affidavit-Job-Id", rec.ID)
		writeIndentJSON(w, http.StatusOK, viewOf(rec))
	case http.MethodDelete:
		if sub != "" {
			http.Error(w, "DELETE targets /jobs/{id}", http.StatusMethodNotAllowed)
			return
		}
		rec, err := s.store.Cancel(id)
		if err != nil {
			http.Error(w, "no job "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("X-Affidavit-Job-Id", rec.ID)
		writeIndentJSON(w, http.StatusOK, viewOf(rec))
	default:
		http.Error(w, "GET or DELETE", http.StatusMethodNotAllowed)
	}
}

// handleMetrics serves GET /metrics: the observer-fed pipeline counters
// followed by the job-subsystem gauges and counters, in fixed order.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.ServeHTTP(w, r)
	m := s.store.Metrics()
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
		{"affidavit_jobs_retried_total", "counter", "Transient failures scheduled for another attempt.", m.Retried},
		{"affidavit_jobs_requeued_total", "counter", "Runs returned to the queue by crash recovery or shutdown.", m.Requeued},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", row.name, row.help, row.name, row.typ, row.name, row.value)
	}
	s.writeCatalogMetrics(w)
}

// jobsStats is the /stats job section.
type jobsStats struct {
	Queued     int   `json:"queued"`
	Running    int   `json:"running"`
	Submitted  int64 `json:"submitted"`
	DedupeHits int64 `json:"dedupe_hits"`
	Completed  int64 `json:"completed"`
	Failed     int64 `json:"failed"`
	Cancelled  int64 `json:"cancelled"`
	Retried    int64 `json:"retried"`
	Requeued   int64 `json:"requeued"`
	// JournalError warns that the durable store degraded to
	// availability-over-durability (first latched journal write failure).
	JournalError string `json:"journal_error,omitempty"`
}

func (s *server) jobsStats() jobsStats {
	m := s.store.Metrics()
	return jobsStats{
		Queued:       m.Queued,
		Running:      m.Running,
		Submitted:    m.Submitted,
		DedupeHits:   m.DedupeHits,
		Completed:    m.Completed,
		Failed:       m.Failed,
		Cancelled:    m.Cancelled,
		Retried:      m.Retried,
		Requeued:     m.Requeued,
		JournalError: m.JournalError,
	}
}
