// Command affidavitd serves explanation traffic over HTTP: clients POST
// pairs of CSV snapshots and receive the learned explanation as JSON, a
// migration script, or a text report. Uploads naming the same table share
// one long-lived session — a common dictionary pool, plus warm-started
// incremental search in chain mode — so recurring traffic over the same
// domain gets cheaper as the service runs.
//
// Usage:
//
//	affidavitd -addr :8080 [search flags]
//
// Every explanation — sync or async — flows through a durable,
// content-addressed job queue: identical snapshot pairs dedupe to a
// single computation (responses are byte-identical, so the cached result
// is exact), a dropped connection no longer throws work away, and with
// -jobs-dir the queue survives restarts — jobs interrupted mid-run are
// journaled back to pending and finished by the next process.
//
// Endpoints:
//
//	POST /explain      multipart upload: files "source" and "target" (CSV,
//	                   first row = header), spooled to disk and hashed, then
//	                   — unless the pair's content address is already known,
//	                   in which case the request joins that job without
//	                   ingesting — interned record-by-record into the
//	                   columnar backend. Snapshots are never buffered whole,
//	                   so uploads beyond the historical -max-upload cap are
//	                   fine; optional values "table"
//	                   (session key, default "table"), "format" (json | sql
//	                   | text), "warm" ("1" = chain mode: warm-start from
//	                   the table's previous explanation and store the new
//	                   one), "trace" ("1" = inline the run's structured
//	                   trace in the JSON response), "async" ("1" = answer
//	                   202 Accepted with the job id instead of waiting).
//	                   Every response carries X-Affidavit-Job-Id and, when
//	                   tracing is on, X-Affidavit-Trace-Id.
//	POST /tables       register a table in the snapshot-history catalog
//	                   (JSON body {"name": ...} or ?name=)
//	GET  /tables       registered tables in registration order
//	GET  /tables/{name}  one table's registration + snapshot lineage
//	POST /tables/{name}/snapshots  push the table's next snapshot
//	                   (multipart file "snapshot", CSV with header row;
//	                   optional values "op" — an operation tag journaled
//	                   into the lineage — and "async" = "1"). The first
//	                   push seeds the chain; every later push runs an
//	                   explanation of the previous→new pair on the table's
//	                   warm session through the job queue, so the stored
//	                   chain is byte-identical to manual warm ExplainNext
//	                   calls over the same sequence. Responses carry
//	                   X-Affidavit-Snapshot-Id (and X-Affidavit-Job-Id
//	                   when a step was queued).
//	GET  /tables/{name}/history  the drift timeline: snapshots with
//	                   lineage (ids, parent ids, content addresses, op
//	                   tags, timestamps) and per-step explanation
//	                   summaries; byte-stable across restarts
//	GET  /tables/{name}/trends  drift analytics over the chain: attribute
//	                   churn, update/insert/delete mix per step and in
//	                   total, compression-ratio trajectory
//	GET  /jobs         every job in submission order (deterministic)
//	GET  /jobs/{id}    one job's status, attempts, stats and trace id
//	GET  /jobs/{id}/result  the stored result bytes (byte-identical for
//	                   every submitter of the same pair)
//	DELETE /jobs/{id}  cancel: a pending job terminally, a running job
//	                   via its context
//	GET  /traces       index of recent run traces, most recent first
//	GET  /traces/{id}  one full structured trace: per-stage wall-clock
//	                   spans (ingest, search, finalize, convert), the
//	                   thinned poll cost curve, spill totals
//	GET  /stats        process start time/uptime/Go version, per-table
//	                   session counters, eviction totals
//	GET  /metrics      Prometheus-style pipeline counters (ingest volume,
//	                   cold/warm/escalated runs, polls, conversions) and
//	                   run/ingest duration histograms fed from traces
//	GET  /healthz      liveness probe
//
// With -pprof, net/http/pprof profiling handlers are additionally mounted
// under /debug/pprof/.
//
// Operating knobs:
//
//	-jobs-dir      root of the durable job state (JSONL journal, upload
//	               blobs, result store); empty = in-memory queue with the
//	               same dedupe/cancel semantics but no crash durability
//	-job-workers   queue-draining workers; jobs shard across workers by
//	               table hash, so one table's jobs run serially in
//	               submission order and warm chains stay warm (default 2)
//	-job-retry     attempts per job, first run included; only transient
//	               failures (blob-store I/O) retry, with doubling backoff
//	               (default 3)
//	-catalog-dir   root of the snapshot-history catalog journal; empty
//	               defaults to <jobs-dir>/catalog when -jobs-dir is set,
//	               else the catalog is in-memory (same chain semantics,
//	               no crash durability)
//	-timeout       per-job explanation budget; on expiry the job fails
//	               terminally and a sync waiter answers 503 with the
//	               partial search statistics
//	-max-sessions  LRU cap on retained per-table sessions
//	-session-ttl   idle sessions are evicted past this age
//	-max-upload    cap on each non-file form value, in MiB (file parts
//	               spool to disk and are not bounded by it)
//	-max-records   cap on each snapshot's record count — the memory
//	               guard at ingest (default 10M)
//	-max-snapshot  cap on each snapshot's raw bytes, in MiB —
//	               catches few-records-huge-fields bodies (default 1024)
//	-mem-budget    approximate per-run budget (e.g. 256MiB) for auxiliary
//	               memory: the overlap index and the conversion's matching
//	               partition through temp files instead of growing the
//	               heap, while snapshots stay resident at 4 B per cell;
//	               explanations are unchanged, /stats and /metrics report
//	               the spilled volume
//	-trace-buffer  retained run traces behind /traces (default 128;
//	               0 disables per-request tracing entirely)
//	-pprof         mount net/http/pprof handlers under /debug/pprof/
//
// SIGINT/SIGTERM cancel in-flight explanations cooperatively and shut the
// listener down gracefully.
//
// Example:
//
//	curl -s -F source=@before.csv -F target=@after.csv \
//	     'localhost:8080/explain?table=accounts' | jq .explanation.functions
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"affidavit"
	"affidavit/internal/cliutil"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		warmGuard   = flag.Float64("warm-guard", 0, "warm-start quality guard factor (0 = disabled; e.g. 3 escalates to a cold search when the warm seed costs 3× the previous compression ratio)")
		maxUpload   = flag.Int64("max-upload", 1, "largest accepted non-file form value in MiB (file parts spool to disk and are not bounded by it; see -max-records and -max-snapshot)")
		maxRecords  = flag.Int("max-records", 0, "largest accepted snapshot in records (0 = default 10M, negative = unlimited)")
		maxSnapshot = flag.Int64("max-snapshot", 0, "largest accepted snapshot in MiB (0 = default 1024, negative = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "concurrent /explain requests (0 = unlimited)")
		timeout     = flag.Duration("timeout", 0, "per-job explanation budget (0 = unlimited; expiry answers 503 with partial stats)")
		jobsDir     = flag.String("jobs-dir", "", "durable job state root: JSONL journal, upload blobs, result store (empty = in-memory queue)")
		catalogDir  = flag.String("catalog-dir", "", "snapshot-history catalog journal root (empty = <jobs-dir>/catalog, or in-memory without -jobs-dir)")
		jobWorkers  = flag.Int("job-workers", 0, "queue-draining workers; jobs shard by table hash (0 = default 2)")
		jobRetry    = flag.Int("job-retry", 0, "attempts per job incl. the first; transient failures retry with doubling backoff (0 = default 3)")
		maxSessions = flag.Int("max-sessions", 0, "retained per-table sessions (0 = unlimited; excess evicts least-recently-used)")
		sessionTTL  = flag.Duration("session-ttl", 0, "idle session lifetime (0 = sessions never expire)")
		traceBuffer = flag.Int("trace-buffer", defaultTraceBuffer, "retained run traces behind /traces (0 = disable per-request tracing)")
		pprofFlag   = flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	)
	cfg := cliutil.Register(flag.CommandLine, cliutil.Defaults{})
	flag.Parse()

	options, err := cfg.Options(affidavit.WithWarmGuard(*warmGuard))
	if err != nil {
		fmt.Fprintln(os.Stderr, "affidavitd:", err)
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel this context; every request context derives
	// from it (BaseContext), so in-flight searches stop cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv, err := newServer(serverConfig{
		options:          options,
		observer:         cfg.ProgressObserver(),
		maxUpload:        *maxUpload << 20,
		maxRecords:       *maxRecords,
		maxSnapshotBytes: *maxSnapshot << 20,
		maxInflight:      *maxInflight,
		timeout:          *timeout,
		maxSessions:      *maxSessions,
		sessionTTL:       *sessionTTL,
		traceBuffer:      *traceBuffer,
		pprof:            *pprofFlag,
		jobsDir:          *jobsDir,
		jobWorkers:       *jobWorkers,
		jobRetry:         *jobRetry,
		catalogDir:       *catalogDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "affidavitd:", err)
		os.Exit(2)
	}
	if *sessionTTL > 0 {
		go srv.janitor(ctx)
	}

	hs := &http.Server{
		Addr:        *addr,
		Handler:     srv.handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "affidavitd: listening on %s (workers=%d timeout=%v max-sessions=%d session-ttl=%v)\n",
		*addr, *cfg.Workers, *timeout, *maxSessions, *sessionTTL)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "affidavitd: interrupt received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			fmt.Fprintln(os.Stderr, "affidavitd: shutdown:", err)
			os.Exit(1)
		}
		// Drain the job subsystem after the listener: running jobs are
		// journaled back to pending (the next process finishes them) and
		// the store closes its journal cleanly.
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "affidavitd: job store:", err)
			os.Exit(1)
		}
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "affidavitd:", err)
			os.Exit(1)
		}
	}
}
