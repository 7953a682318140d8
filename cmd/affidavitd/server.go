package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"sync"
	"time"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// maxFieldBytes caps each non-file multipart value (table name, format,
// async and trace flags). File parts are never buffered — they spool to
// disk and are interned from there — so this is the only per-part memory
// bound the server needs.
const maxFieldBytes = 1 << 20

// serverConfig bundles the service knobs so tests and main construct the
// server the same way.
type serverConfig struct {
	// options construct the server's Explainer — the one shared
	// configuration path for every explanation the service runs.
	options []affidavit.Option
	// maxUpload caps each buffered non-file form value in bytes; 0 means
	// maxFieldBytes. File parts spool to disk and are deliberately NOT
	// bounded by it: uploads larger than the historical -max-upload are
	// interned chunk-by-chunk without whole-snapshot buffering.
	maxUpload int64
	// maxRecords caps each ingested snapshot's record count; 0 means the
	// default of 10 million. File parts have no whole-body byte cap, so
	// this is one of the two guards against an endless (or hostile
	// high-cardinality) upload interning until OOM; set it to what the
	// deployment's memory can intern. Negative means unlimited.
	maxRecords int
	// maxSnapshotBytes caps each spooled snapshot's raw byte volume — the
	// companion guard to maxRecords, catching few-records-huge-fields
	// bodies that a record count cannot. 0 means the default of 1 GiB;
	// negative means unlimited.
	maxSnapshotBytes int64
	// maxInflight bounds concurrent /explain requests; 0 = unlimited.
	maxInflight int
	// timeout bounds each /explain request's explanation work; 0 means
	// unlimited. On expiry the request answers 503 with the partial search
	// statistics.
	timeout time.Duration
	// traceBuffer caps the ring of recent run traces served by /traces;
	// 0 disables per-request tracing entirely (no recorder, no
	// X-Affidavit-Trace-Id header, ?trace=1 ignored). Negative means the
	// default of defaultTraceBuffer.
	traceBuffer int
	// pprof mounts net/http/pprof handlers under /debug/pprof/ when set.
	pprof bool
	// jobsDir roots all durable state (-jobs-dir): the job journal, the
	// content-addressed upload blobs, the result store, and the catalog
	// journal under catalog/. Empty means a private temporary directory
	// holding the same state, removed when the server closes.
	jobsDir string
	// jobWorkers sizes the queue-draining pool (-job-workers; 0 = 2).
	// Jobs shard across workers by table hash, so one table's jobs run
	// serially in submission order and catalog chains stay warm.
	jobWorkers int
}

// defaultTraceBuffer is the trace ring size when -trace-buffer is unset.
const defaultTraceBuffer = 128

// server routes explanation traffic onto affidavit sessions. An /explain
// upload interns its pair into a session of its own, which its job drops
// when it ends, so /explain keeps no state between requests beyond the job
// record and the cached result. The catalog's chains are the only
// long-lived sessions: each registered table keeps one dictionary pool and
// one warm-start tuple across its pushes.
//
// Every session derives from one Explainer. Every ingest and run reports
// to the Prometheus-style /metrics endpoint — ingest volume, run modes
// (cold/warm/escalated), poll and conversion counters — through the
// metrics observer that intern and runJob attach to their contexts (see
// observe).
type server struct {
	cfg         serverConfig
	ex          *affidavit.Explainer
	metrics     *affidavit.MetricsObserver
	maxInflight chan struct{} // nil = unlimited

	// store is the durable, content-addressed job queue + result store;
	// pool drains it through runJob. Every explanation — sync or async —
	// goes through them, so both paths share dedupe and accounting.
	store *jobs.Store
	pool  *jobs.Pool

	// catalog is the snapshot-history journal behind /tables: registered
	// tables, pushed snapshot lineage, and each chain step's terminal
	// state. Chain steps run as catalog-kind jobs on pool.
	catalog *catalog.Store
	// pushMu serializes a push's lineage append + job submission, so each
	// snapshot's parent is exactly the previous push. Spooling and ingest
	// run outside it.
	pushMu sync.Mutex

	// engineFP is the Explainer's result-affecting option fingerprint,
	// folded into every explain job's content address so a configuration
	// change stops serving results computed under old flags.
	engineFP string

	mu sync.Mutex
	// chains holds each catalog table's live warm chain; schemaResets
	// counts chain re-seeds caused by mid-chain schema changes.
	chains       map[string]chainState
	schemaResets int64

	// traceMu guards the bounded ring of recent run traces behind /traces.
	// traceNext is the slot the next trace overwrites once the ring is full.
	traceMu   sync.Mutex
	traces    []*affidavit.Trace
	traceNext int
}

// newServer builds the server and starts its job pool. base carries the
// observers every ingest and run reports to besides the metrics (main's
// -progress narrator); the pool runs under it without its cancellation, so
// a SIGINT requeues running jobs instead of failing them.
func newServer(base context.Context, cfg serverConfig) (*server, error) {
	if cfg.maxUpload <= 0 {
		cfg.maxUpload = maxFieldBytes
	}
	if cfg.maxRecords == 0 {
		cfg.maxRecords = 10_000_000
	}
	if cfg.maxSnapshotBytes == 0 {
		cfg.maxSnapshotBytes = 1 << 30
	}
	if cfg.traceBuffer < 0 {
		cfg.traceBuffer = defaultTraceBuffer
	}
	ex, err := affidavit.New(cfg.options...)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:     cfg,
		ex:      ex,
		metrics: affidavit.NewMetricsObserver(),
		chains:  make(map[string]chainState),
	}
	if cfg.maxInflight > 0 {
		s.maxInflight = make(chan struct{}, cfg.maxInflight)
	}
	// Open the job store (replaying the journal when -jobs-dir holds one:
	// pending and crash-orphaned jobs requeue, completed results keep
	// serving; without -jobs-dir it makes a private directory) and start
	// the drain pool. The pool's lifetime is bound to Close, not to base's
	// cancellation, so a SIGINT requeues running jobs instead of failing
	// them.
	store, err := jobs.Open(jobs.Options{Dir: cfg.jobsDir})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.engineFP = ex.Fingerprint()
	// The catalog must exist before the pool starts: a replayed journal
	// can hold pending catalog steps, and runJob dispatches those to it.
	// It journals under the job state's root, so both stores live and
	// go together: a step's parent blob lives in the job store.
	cat, err := catalog.OpenStore(filepath.Join(store.Dir(), "catalog"), time.Now)
	if err != nil {
		store.Close()
		return nil, err
	}
	s.catalog = cat
	if err := s.rollForward(); err != nil {
		cat.Close()
		store.Close()
		return nil, err
	}
	s.pool = jobs.NewPool(store, s.runJob, jobs.PoolOptions{
		Workers: cfg.jobWorkers,
		Timeout: cfg.timeout,
	})
	s.pool.Start(context.WithoutCancel(base))
	return s, nil
}

// Close drains the worker pool (running jobs are journaled back to
// pending — drain-on-shutdown persists the queue), closes the catalog
// journal (no step finishes after the pool is drained), and then closes
// the store, releasing any sync waiters.
func (s *server) Close() error {
	s.pool.Close()
	cerr := s.catalog.Close()
	if serr := s.store.Close(); serr != nil {
		return serr
	}
	return cerr
}

func (s *server) handler() http.Handler {
	// Method patterns: the mux answers a wrong method with 405 and an Allow
	// header, and an unknown path with 404.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("GET /tables", s.handleTableList)
	mux.HandleFunc("POST /tables", s.handleRegister)
	mux.HandleFunc("GET /tables/{name}", s.handleTable)
	mux.HandleFunc("POST /tables/{name}/snapshots", s.handlePush)
	mux.HandleFunc("GET /tables/{name}/history", s.handleHistory)
	mux.HandleFunc("GET /tables/{name}/trends", s.handleTrends)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /traces", s.handleTraces)
	mux.HandleFunc("GET /traces/{id}", s.handleTraces)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// storeTrace records a finished run trace in the bounded ring (oldest
// overwritten first) and feeds the duration histograms on /metrics.
func (s *server) storeTrace(tr *affidavit.Trace) {
	if tr == nil || s.cfg.traceBuffer == 0 {
		return
	}
	s.metrics.ObserveTrace(tr)
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if len(s.traces) < s.cfg.traceBuffer {
		s.traces = append(s.traces, tr)
		return
	}
	s.traces[s.traceNext] = tr
	s.traceNext = (s.traceNext + 1) % s.cfg.traceBuffer
}

// recentTraces returns the retained traces, most recent first.
func (s *server) recentTraces() []*affidavit.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	n := len(s.traces)
	out := make([]*affidavit.Trace, 0, n)
	// Before the ring wraps traceNext stays 0 and traces append in order;
	// after it wraps traceNext is the oldest slot. Either way the newest
	// trace sits at traceNext-1 (mod n) and older ones walk backwards.
	for i := 0; i < n; i++ {
		out = append(out, s.traces[((s.traceNext-1-i)%n+n)%n])
	}
	return out
}

// traceByID returns the retained trace with the given ID, or nil.
func (s *server) traceByID(id string) *affidavit.Trace {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	for _, tr := range s.traces {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// traceIndexEntry is one /traces index row: enough to pick a trace
// without shipping its spans and cost curve.
type traceIndexEntry struct {
	ID         string    `json:"id"`
	Label      string    `json:"label,omitempty"`
	StartedAt  time.Time `json:"started_at"`
	DurationMS float64   `json:"duration_ms"`
	Mode       string    `json:"mode,omitempty"`
	Polls      int       `json:"polls"`
	Cost       float64   `json:"cost"`
	Cancelled  bool      `json:"cancelled,omitempty"`
}

// handleTraces serves GET /traces (index of retained run traces, most
// recent first) and GET /traces/{id} (one full structured trace).
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.cfg.traceBuffer == 0 {
		http.Error(w, "tracing disabled (-trace-buffer 0)", http.StatusNotFound)
		return
	}
	id := r.PathValue("id")
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if id == "" {
		recent := s.recentTraces()
		index := make([]traceIndexEntry, len(recent))
		for i, tr := range recent {
			index[i] = traceIndexEntry{
				ID:         tr.ID,
				Label:      tr.Label,
				StartedAt:  tr.StartedAt,
				DurationMS: tr.DurationMS,
				Mode:       tr.Mode,
				Polls:      tr.Polls.Polls,
				Cost:       tr.Cost,
				Cancelled:  tr.Cancelled,
			}
		}
		enc.Encode(struct {
			Traces []traceIndexEntry `json:"traces"`
		}{index})
		return
	}
	tr := s.traceByID(id)
	if tr == nil {
		http.Error(w, fmt.Sprintf("no retained trace %q (ring keeps the last %d)", id, s.cfg.traceBuffer), http.StatusNotFound)
		return
	}
	enc.Encode(tr)
}

// deadlineResponse is the 503 body: the request ran out of budget, and
// these are the statistics of the work done before the cut.
type deadlineResponse struct {
	Error string              `json:"error"`
	Table string              `json:"table"`
	Stats affidavit.JSONStats `json:"stats"`
}

// handleExplain serves POST /explain: a multipart upload with CSV files
// "source" and "target" (first row = header). Optional form/query values:
//
//	table   SQL and result table name, and the worker-affinity key
//	        (default "table")
//	format  json (default) | sql | text
//	async   "1" answers 202 Accepted with the job id immediately; poll
//	        GET /jobs/{id} and fetch GET /jobs/{id}/result
//
// The upload is addressed before it is ingested. Both file parts are
// first spooled to disk through the byte cap and hashed (never held whole
// in memory, and not bounded by -max-upload); the hashes, table, format
// and engine fingerprint give the job's content address. When that
// address already names a pending, running or completed job whose blobs
// are stored, the request joins it and the spools are dropped — a
// duplicate never parses CSV, interns a record or fsyncs a blob. Otherwise
// both snapshots are interned from their spools record-by-record into a
// session of the upload's own (only distinct values and 4-byte codes are
// retained), the blobs are committed and the job is submitted with the
// session and its tables as its payload. /explain keeps no warm state: a
// "warm" value answers 400 naming the catalog routes, which serve warm
// chains.
//
// Every explanation — sync or async — goes through the content-addressed
// job queue, and Submit is the one atomic dedupe decision: concurrent
// first-time uploads of one pair each ingest, then collapse to a single
// computation there. The sync path is a thin submit-and-wait over the
// same queue; a client that disconnects mid-wait does not throw the work
// away — the job finishes and its result stays fetchable under
// /jobs/{id}/result.
//
// The job runs under the worker pool's per-job deadline (-timeout); on
// expiry the job fails terminally and a sync waiter answers 503 Service
// Unavailable with the partial search statistics.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if s.maxInflight != nil {
		// Wait for a slot under the request context: a client that
		// disconnects while queued must not consume a slot and pay the
		// upload ingest for an answer nobody reads.
		select {
		case s.maxInflight <- struct{}{}:
			defer func() { <-s.maxInflight }()
		case <-ctx.Done():
			http.Error(w, "request expired while queued for a slot", http.StatusServiceUnavailable)
			return
		}
	}
	up, err := upload.Spool(r, s.store.Blobs(), s.uploadLimits(), "source", "target")
	if err != nil {
		badUpload(ctx, w, err)
		return
	}
	// A rejected upload leaves no blob: whatever is not committed below is
	// dropped on the way out.
	defer up.Discard()
	table := up.Value("table")
	if table == "" {
		table = "table"
	}
	format := up.Value("format")
	switch format {
	case "":
		format = "json"
	case "json", "sql", "text":
	default:
		http.Error(w, fmt.Sprintf("unknown format %q", format), http.StatusBadRequest)
		return
	}
	if up.Value("warm") != "" {
		http.Error(w, "warm chains are served by the catalog: register the table with POST /tables, "+
			"then push each snapshot with POST /tables/{name}/snapshots", http.StatusBadRequest)
		return
	}
	spec := jobs.Spec{
		Table:      table,
		Format:     format,
		SourceBlob: up.Files["source"].Sum(),
		TargetBlob: up.Files["target"].Sum(),
	}
	// The content address: canonicalized upload hashes plus every option
	// the result bytes depend on — including the engine-option fingerprint,
	// so restarting with different flags stops serving results computed
	// under the old configuration.
	spec.Addr = jobs.Address("explain/v2", s.engineFP, table, format, spec.SourceBlob, spec.TargetBlob)
	if s.store.Joinable(spec.Addr) {
		// A duplicate joins its job on the address alone. Should that job
		// fail between this lookup and Submit, Submit reruns it without a
		// payload and the runner replays the blobs Joinable just saw.
		up.Discard()
	} else {
		// Created only on a miss, so a dedupe hit creates no session. The
		// pair interns straight into the pool its job will run over; a
		// rejected upload's values go with the session when this returns.
		sess := s.ex.Session(nil)
		tabs, trec, err := s.intern(ctx, up, sess.ReadSource, "source", "target")
		if err != nil {
			badUpload(ctx, w, err)
			return
		}
		spec.Payload = &jobPayload{sess: sess, src: tabs[0], tgt: tabs[1], trace: trec}
	}
	job, _, err := s.store.Submit(spec)
	if err != nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("X-Affidavit-Job-Id", job.ID())
	if up.Value("async") == "1" {
		s.writeJobAccepted(w, job)
		return
	}
	s.waitOutcome(ctx, w, job, up.Value("trace") == "1")
}

// uploadLimits bounds every multipart upload, /explain and catalog push
// alike.
func (s *server) uploadLimits() upload.Limits {
	return upload.Limits{
		FieldBytes:    s.cfg.maxUpload,
		SnapshotBytes: s.cfg.maxSnapshotBytes,
		Records:       s.cfg.maxRecords,
	}
}

// badUpload answers a rejected upload: 400 with the reason, or 503 when
// the request itself expired mid-upload.
func badUpload(ctx context.Context, w http.ResponseWriter, err error) {
	if ctx.Err() != nil {
		http.Error(w, "request expired during upload ingest", http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// intern interns the named file parts of a spooled upload through read
// and commits their blobs, so the blobs are durable before the job that
// names them is journaled. One trace recorder rides the whole submission:
// it sees the ingest here, and runJob attaches it to the job's run, so
// both feed one per-run trace (nil with tracing off).
func (s *server) intern(ctx context.Context, up *upload.Body, read upload.Reader, names ...string) ([]*affidavit.Table, *affidavit.TraceRecorder, error) {
	var trec *affidavit.TraceRecorder
	if s.cfg.traceBuffer != 0 {
		trec = affidavit.NewTraceRecorder()
	}
	ctx = s.observe(ctx, trec)
	tabs := make([]*affidavit.Table, len(names))
	for i, name := range names {
		tab, err := up.Ingest(ctx, read, name)
		if err != nil {
			return nil, nil, err
		}
		tabs[i] = tab
	}
	for _, name := range names {
		if _, err := up.Files[name].Commit(); err != nil {
			return nil, nil, fmt.Errorf("storing %q upload: %w", name, err)
		}
	}
	return tabs, trec, nil
}

// observe attaches the server's metrics observer and, when non-nil, a
// run's trace recorder to ctx — the two contexts events reach them on are
// intern's (ingest) and runJob's (the run, and any re-ingest it needs).
func (s *server) observe(ctx context.Context, trec *affidavit.TraceRecorder) context.Context {
	ctx = affidavit.ContextWithObserver(ctx, s.metrics)
	if trec == nil {
		return ctx
	}
	return affidavit.ContextWithObserver(ctx, trec)
}

// waitOutcome answers a sync submission with its job's outcome. A client
// whose wait ends first does not end the job: it keeps running and its
// result stays fetchable.
func (s *server) waitOutcome(ctx context.Context, w http.ResponseWriter, job *jobs.Job, inlineTrace bool) {
	rec, err := s.store.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			http.Error(w, "request expired while waiting; poll /jobs/"+job.ID(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	s.writeJobOutcome(w, rec, inlineTrace)
}
