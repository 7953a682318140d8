package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"affidavit"
	"affidavit/internal/catalog"
	"affidavit/internal/jobs"
	"affidavit/internal/upload"
)

// maxFieldBytes caps each non-file multipart value (table name, format,
// warm flag). File parts are never buffered — they spool to disk and are
// interned from there — so this is the only per-part memory bound the
// server needs.
const maxFieldBytes = 1 << 20

// serverConfig bundles the service knobs so tests and main construct the
// server the same way.
type serverConfig struct {
	// options construct the server's Explainer — the one shared
	// configuration path for every explanation the service runs. Do not
	// include WithObserver here (newServer attaches the /metrics observer
	// last and would shadow it); pass extra observers via observer.
	options []affidavit.Option
	// observer, when non-nil, receives pipeline events alongside the
	// server's own MetricsObserver (e.g. the -progress narrator).
	observer affidavit.Observer
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
	// maxSessions caps the retained per-table sessions; 0 means unlimited.
	// Creating a session past the cap evicts the least-recently-used one.
	maxSessions int
	// sessionTTL expires sessions idle longer than this; 0 means sessions
	// never expire. Eviction frees the table's dictionary pool and warm
	// state; the next upload for that table simply starts a fresh session.
	sessionTTL time.Duration
	// traceBuffer caps the ring of recent run traces served by /traces;
	// 0 disables per-request tracing entirely (no recorder, no
	// X-Affidavit-Trace-Id header, ?trace=1 ignored). Negative means the
	// default of defaultTraceBuffer.
	traceBuffer int
	// pprof mounts net/http/pprof handlers under /debug/pprof/ when set.
	pprof bool
	// jobsDir roots the durable job state (-jobs-dir): the JSONL journal,
	// the content-addressed upload blobs, and the result store. Empty
	// means an in-memory job store — same queue, dedupe and cancel
	// semantics, no crash durability.
	jobsDir string
	// jobWorkers sizes the queue-draining pool (-job-workers; 0 = 2).
	// Jobs shard across workers by table hash, so one table's jobs run
	// serially in submission order and warm chains stay warm.
	jobWorkers int
	// jobRetry bounds runner executions per job, first attempt included
	// (-job-retry; 0 = 3). Only transient failures retry.
	jobRetry int
	// jobBackoff is the base retry delay, doubled per attempt (0 = the
	// pool default). Tests shrink it.
	jobBackoff time.Duration
	// catalogDir roots the snapshot-history catalog journal (-catalog-dir).
	// Empty defaults to <jobs-dir>/catalog when -jobs-dir is set, else an
	// in-memory catalog (same chain semantics, no crash durability).
	catalogDir string
	// now is the clock; nil means time.Now. Tests inject a fake. It paces
	// session eviction only — the job store keeps its own wall clock, so
	// fake-clock tests do not race with queue backoff arithmetic.
	now func() time.Time
}

// defaultTraceBuffer is the trace ring size when -trace-buffer is unset.
const defaultTraceBuffer = 128

// server routes explanation traffic onto per-table affidavit sessions: all
// uploads naming the same table share one dictionary pool (and, in chain
// mode, one warm-start tuple), so recurring traffic over the same domain
// gets cheaper as the service runs. Sessions are bounded two ways — an LRU
// cap on their count and a TTL on their idleness — so an unbounded stream
// of distinct table names can no longer grow the dictionary pools forever.
//
// Every session derives from one Explainer, whose observer feeds the
// Prometheus-style /metrics endpoint: ingest volume, run modes
// (cold/warm/escalated), poll and conversion counters.
type server struct {
	cfg         serverConfig
	ex          *affidavit.Explainer
	metrics     *affidavit.MetricsObserver
	maxInflight chan struct{} // nil = unlimited
	startedAt   time.Time

	// store is the durable, content-addressed job queue + result store;
	// pool drains it through runJob. Every explanation — sync or async —
	// goes through them, so both paths share dedupe and accounting.
	store *jobs.Store
	pool  *jobs.Pool

	// catalog is the snapshot-history surface under /tables: registered
	// tables, pushed snapshot lineage, and the explanation chain computed
	// over each adjacent pair (chain steps run as jobs on pool).
	catalog *catalog.Service

	// engineFP is the Explainer's result-affecting option fingerprint,
	// folded into every explain job's content address so a configuration
	// change stops serving results computed under old flags.
	engineFP string

	mu       sync.Mutex
	sessions map[string]*sessionEntry
	evicted  int // sessions dropped by TTL or LRU, for /stats

	// traceMu guards the bounded ring of recent run traces behind /traces.
	// traceNext is the slot the next trace overwrites once the ring is full.
	traceMu   sync.Mutex
	traces    []*affidavit.Trace
	traceNext int
}

// sessionEntry is one table's session plus the bookkeeping eviction needs.
type sessionEntry struct {
	sess    *affidavit.Session
	lastUse time.Time
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.now == nil {
		cfg.now = time.Now
	}
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
	metrics := affidavit.NewMetricsObserver()
	ex, err := affidavit.New(append(append([]affidavit.Option{}, cfg.options...),
		affidavit.WithObserver(affidavit.Observers(metrics, cfg.observer)))...)
	if err != nil {
		return nil, err
	}
	s := &server{
		cfg:       cfg,
		ex:        ex,
		metrics:   metrics,
		sessions:  make(map[string]*sessionEntry),
		startedAt: cfg.now(),
	}
	if cfg.maxInflight > 0 {
		s.maxInflight = make(chan struct{}, cfg.maxInflight)
	}
	// Open the job store (replaying the journal when -jobs-dir holds one:
	// pending and crash-orphaned jobs requeue, completed results keep
	// serving) and start the drain pool. The pool's lifetime is bound to
	// Close, not a request context, so a SIGINT requeues running jobs
	// instead of failing them.
	store, err := jobs.Open(jobs.Options{Dir: cfg.jobsDir})
	if err != nil {
		return nil, err
	}
	s.store = store
	s.engineFP = ex.Fingerprint()
	// The catalog must exist before the pool starts: a replayed journal
	// can hold pending catalog steps, and runJob dispatches those to it.
	catDir := cfg.catalogDir
	if catDir == "" && cfg.jobsDir != "" {
		catDir = filepath.Join(cfg.jobsDir, "catalog")
	}
	cat, err := catalog.NewService(catalog.Config{
		Dir:              catDir,
		Explainer:        ex,
		Jobs:             store,
		MaxRecords:       cfg.maxRecords,
		MaxSnapshotBytes: cfg.maxSnapshotBytes,
		Now:              cfg.now,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.catalog = cat
	s.pool = jobs.NewPool(store, s.runJob, jobs.PoolOptions{
		Workers:     cfg.jobWorkers,
		MaxAttempts: cfg.jobRetry,
		Backoff:     cfg.jobBackoff,
		Timeout:     cfg.timeout,
	})
	s.pool.Start(context.Background())
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

// session returns the named table's session, creating it on first use and
// refreshing its last-use stamp. When the LRU cap is hit, the
// least-recently-used session is dropped to make room (ties break on the
// smaller table name, for determinism).
func (s *server) session(table string) *affidavit.Session {
	now := s.cfg.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.sessions[table]; ok {
		e.lastUse = now
		return e.sess
	}
	if s.cfg.maxSessions > 0 {
		for len(s.sessions) >= s.cfg.maxSessions {
			var victim string
			for name, e := range s.sessions {
				if victim == "" ||
					e.lastUse.Before(s.sessions[victim].lastUse) ||
					(e.lastUse.Equal(s.sessions[victim].lastUse) && name < victim) {
					victim = name
				}
			}
			delete(s.sessions, victim)
			s.evicted++
		}
	}
	e := &sessionEntry{sess: s.ex.Session(nil), lastUse: now}
	s.sessions[table] = e
	return e.sess
}

// evictExpired drops every session idle since before now−TTL and reports
// how many it removed. No-op when the TTL is unset.
func (s *server) evictExpired(now time.Time) int {
	if s.cfg.sessionTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.sessionTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for name, e := range s.sessions {
		if e.lastUse.Before(cutoff) {
			delete(s.sessions, name)
			n++
		}
	}
	s.evicted += n
	return n
}

// janitor runs evictExpired periodically until ctx ends. The sweep period
// is a quarter of the TTL, clamped to [1s, 1m], so an expired session
// lingers at most ~25% past its deadline.
func (s *server) janitor(ctx context.Context) {
	every := s.cfg.sessionTTL / 4
	if every < time.Second {
		every = time.Second
	}
	if every > time.Minute {
		every = time.Minute
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.evictExpired(now)
		}
	}
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/explain", s.handleExplain)
	mux.Handle("/tables", s.catalog)
	mux.Handle("/tables/", s.catalog)
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/", s.handleTraces)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
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
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.traceBuffer == 0 {
		http.Error(w, "tracing disabled (-trace-buffer 0)", http.StatusNotFound)
		return
	}
	id := strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
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
//	table   session key and SQL table name (default "table")
//	format  json (default) | sql | text
//	warm    "1" warm-starts from the table's previous explanation and
//	        stores the new one (chain mode)
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
// both snapshots are interned from their spools record-by-record (only
// distinct values and 4-byte codes are retained), the blobs are committed
// and the job is submitted with the tables as its payload.
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
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
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
	badUpload := func(err error) {
		if ctx.Err() != nil {
			http.Error(w, "request expired during upload ingest", http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	up, err := upload.Spool(r, s.store.Blobs(), upload.Limits{
		FieldBytes:    s.cfg.maxUpload,
		SnapshotBytes: s.cfg.maxSnapshotBytes,
		Records:       s.cfg.maxRecords,
	}, "source", "target")
	if err != nil {
		badUpload(err)
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
	spec := jobs.Spec{
		Table:      table,
		Format:     format,
		Warm:       up.Value("warm") == "1",
		SourceBlob: up.Files["source"].Sum(),
		TargetBlob: up.Files["target"].Sum(),
	}
	if !spec.Warm {
		// The content address: canonicalized upload hashes plus every
		// option the result bytes depend on — including the engine-option
		// fingerprint, so restarting with different flags stops serving
		// results computed under the old configuration. Warm jobs depend on
		// session history too, so they never dedupe (empty address).
		spec.Addr = jobs.Address("explain/v2", s.engineFP, table, format, spec.SourceBlob, spec.TargetBlob)
	}
	if s.store.Joinable(spec.Addr) {
		// A duplicate joins its job on the address alone. Should that job
		// fail between this lookup and Submit, Submit reruns it without a
		// payload and the runner replays the blobs Joinable just saw (an
		// in-memory store has none: that rerun fails, and the pair's next
		// upload ingests).
		up.Discard()
	} else {
		// One trace recorder rides the whole submission: the ingest here
		// and the job's search (runJob attaches the same recorder to the
		// worker context) feed one per-run trace.
		payload := &jobPayload{}
		ictx := ctx
		if s.cfg.traceBuffer != 0 {
			payload.trace = affidavit.NewTraceRecorder()
			ictx = affidavit.ContextWithObserver(ctx, payload.trace)
		}
		// Resolved only on a miss, so a dedupe hit creates no session. The
		// pair interns straight into the pool its job will run over.
		read := s.session(table).ReadSource
		if payload.src, err = up.Ingest(ictx, read, "source"); err == nil {
			payload.tgt, err = up.Ingest(ictx, read, "target")
		}
		if err != nil {
			badUpload(err)
			return
		}
		// Blobs are durable before the job that names them is journaled.
		for _, name := range []string{"source", "target"} {
			if _, err := up.Files[name].Commit(); err != nil {
				http.Error(w, fmt.Sprintf("storing %q upload: %v", name, err), http.StatusBadRequest)
				return
			}
		}
		spec.Payload = payload
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
	rec, err := s.store.Wait(ctx, job)
	if err != nil {
		if ctx.Err() != nil {
			// The client's wait ended, not the job: it keeps running and
			// its result stays fetchable.
			http.Error(w, "request expired while waiting; poll /jobs/"+job.ID(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	s.writeJobOutcome(w, rec, up.Value("trace") == "1")
}

type tableStats struct {
	Runs       int `json:"runs"`
	PoolAttrs  int `json:"pool_attrs"`
	PoolValues int `json:"pool_values"`
}

type statsResponse struct {
	StartedAt     time.Time `json:"started_at"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	GoVersion     string    `json:"go_version"`
	// TracesRetained counts the run traces currently in the /traces ring.
	TracesRetained  int                   `json:"traces_retained"`
	Tables          map[string]tableStats `json:"tables"`
	SessionsEvicted int                   `json:"sessions_evicted"`
	// Jobs mirrors /metrics' affidavit_jobs_* series: queue depth,
	// running, and the lifetime submission/dedupe/outcome counters.
	Jobs jobsStats `json:"jobs"`
	// Catalog mirrors /metrics' affidavit_catalog_* series: registered
	// tables, stored snapshots, and chain steps by status.
	Catalog catalogStats `json:"catalog"`
	// Out-of-core totals under -mem-budget (mirrors /metrics'
	// affidavit_spill_bytes_total / affidavit_spill_partitions_total).
	SpillBytes      int64 `json:"spill_bytes_total"`
	SpillPartitions int64 `json:"spill_partitions_total"`
}

// handleStats serves GET /stats: process identity (start time, uptime, Go
// version) plus per-table session counters and the lifetime eviction
// count.
func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.now()
	s.traceMu.Lock()
	retained := len(s.traces)
	s.traceMu.Unlock()
	s.mu.Lock()
	names := make([]string, 0, len(s.sessions))
	for name := range s.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]tableStats, len(names))
	for _, name := range names {
		sess := s.sessions[name].sess
		attrs, values := sess.PoolStats()
		out[name] = tableStats{Runs: sess.Runs(), PoolAttrs: attrs, PoolValues: values}
	}
	evicted := s.evicted
	s.mu.Unlock()
	spillBytes, spillParts := s.metrics.SpillTotals()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(statsResponse{
		StartedAt:       s.startedAt,
		UptimeSeconds:   now.Sub(s.startedAt).Seconds(),
		GoVersion:       runtime.Version(),
		TracesRetained:  retained,
		Tables:          out,
		SessionsEvicted: evicted,
		Jobs:            s.jobsStats(),
		Catalog:         s.catalogStats(),
		SpillBytes:      spillBytes,
		SpillPartitions: spillParts,
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
