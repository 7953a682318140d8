package main

// The metric ledger: every name the benchmark prints, with its unit, the
// direction that is better and — for the end-to-end metrics — the share
// of the parent's median by which it may worsen before a change counts as
// a regression. BENCHMARK.json mirrors these tables; the smoke test fails
// when the two disagree.

// metricDef describes one metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound applies to end-to-end metrics only.
	Bound float64
	// Layer, How and Moves document a per-layer metric: the module it
	// belongs to, how the harness measures it from outside, and which
	// end-to-end metric on which workload it is predicted to move.
	Layer string
	How   string
	Moves string
}

// endToEnd lists what a caller of the service sees. failed operations are
// not a metric here: a share that is normally 0 cannot carry a relative
// bound, so they travel in the result line's attempted/failed counts and
// any failure makes the command exit non-zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "daemon_cpu_s_per_op", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_input_byte", Unit: "ratio", Better: "lower", Bound: 0.1},
}

const (
	movesFixed  = "latency_p50_ms on small_mix and dup_async (fixed per-request cost)"
	movesCold   = "latency_p50_ms on cold_large"
	movesIngest = "latency_p50_ms and daemon_cpu_s_per_op on dup_async and cold_large; peak_rss_mb on cold_large"
	movesSearch = "latency_p50_ms, throughput_ops_s and daemon_cpu_s_per_op on cold_large; no change on dup_async"
	movesWarm   = "latency_p50_ms and peak_rss_mb on warm_chain only"
	movesJobs   = "latency_p50_ms and throughput_ops_s on small_mix and dup_async"
	movesCat    = "latency_p50_ms and latency_p90_ms on warm_chain only"

	howClient   = "client-side request phases of the traced replay (body written / first response byte / body read)"
	howCounters = "/metrics counter delta over the plain replay ÷ operations"
	howTrace    = "stage span of /traces/{id}, fetched via X-Affidavit-Trace-Id after each traced request"
)

// perLayer lists the single-layer metrics of the traced run.
var perLayer = []metricDef{
	// affidavitd: the process and its HTTP surface.
	{Name: "affidavitd.build_s", Unit: "s", Better: "lower", Layer: "affidavitd", How: "go build -pgo=default.pgo ./cmd/affidavitd (cached after the first run of a checkout)", Moves: "none (reported beside setup_s, never inside it)"},
	{Name: "affidavitd.start_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "spawn until /healthz answers, fresh directories", Moves: "setup_s on every workload"},
	{Name: "affidavitd.restart_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "SIGKILL, restart on the populated directories, until /healthz answers", Moves: "setup_s after a crash; fed by jobs.replay_ms and catalog.replay_ms"},
	{Name: "affidavitd.latency_p90_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "90th percentile client latency over the plain replay (the prefix is too short for it on cold_large, where it reads as the slowest pair)", Moves: "history_get_ms and trends_get_ms growth on warm_chain; a per-layer metric because no bound holds on a tail of under 100 samples"},
	{Name: "affidavitd.peak_rss_mb", Unit: "MB", Better: "lower", Layer: "affidavitd", How: "VmHWM of the daemon at the end of the plain replay (fixed operation count)", Moves: "a per-layer metric because GC pacing makes it swing by more than any usable bound; grows with operation count (one retained session per table name)"},
	{Name: "affidavitd.upload_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: howClient, Moves: movesIngest},
	{Name: "affidavitd.wait_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: howClient, Moves: movesCold},
	{Name: "affidavitd.read_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: howClient, Moves: movesCold},
	{Name: "affidavitd.response_kb_per_op", Unit: "KB", Better: "lower", Layer: "affidavitd", How: "response bytes of the plain replay ÷ operations (exact for a seed)", Moves: "latency_p50_ms and disk_bytes_per_input_byte on cold_large"},
	{Name: "affidavitd.history_get_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "client time of GET /tables/{name}/history", Moves: "latency_p90_ms on warm_chain"},
	{Name: "affidavitd.trends_get_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "client time of GET /tables/{name}/trends", Moves: "latency_p90_ms on warm_chain"},
	{Name: "affidavitd.polls_per_op", Unit: "count", Better: "lower", Layer: "affidavitd", How: "GET /jobs/{id}/result requests per async operation", Moves: "latency_p50_ms on dup_async"},
	{Name: "affidavitd.outside_run_ms", Unit: "ms", Better: "lower", Layer: "affidavitd", How: "client time of the request − duration_ms of the daemon trace of the same request", Moves: movesFixed},
	{Name: "affidavitd.unattributed_share", Unit: "ratio", Better: "lower", Layer: "affidavitd", How: "(p50 of the plain replay − Σ in-process stage spans of the same inputs) ÷ that p50", Moves: movesFixed},

	// trace: the daemon's own per-run tracing.
	{Name: "trace.ingest_ms", Unit: "ms", Better: "lower", Layer: "trace", How: howTrace, Moves: movesIngest},
	{Name: "trace.search_ms", Unit: "ms", Better: "lower", Layer: "trace", How: howTrace, Moves: movesCold},
	{Name: "trace.convert_ms", Unit: "ms", Better: "lower", Layer: "trace", How: howTrace, Moves: movesCold},
	{Name: "trace.daemon_overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", How: "(p50 of the replay at default -trace-buffer − p50 at -trace-buffer 0) ÷ the former", Moves: "latency_p50_ms on small_mix"},
	{Name: "trace.bench_overhead_share", Unit: "ratio", Better: "lower", Layer: "trace", How: "(p50 of the replay with harness spans and trace fetches − p50 without) ÷ the latter", Moves: "none; it is the cost of the traced run itself"},

	// source / table: ingest and interning.
	{Name: "source.csv_ms", Unit: "ms", Better: "lower", Layer: "source", How: "Explainer.ReadSource(NewCSVSource) per snapshot", Moves: movesIngest},
	{Name: "source.csv_mb_s", Unit: "MB/s", Better: "higher", Layer: "source", How: "CSV bytes ÷ source.csv_ms", Moves: movesIngest},
	{Name: "source.jsonl_ms", Unit: "ms", Better: "lower", Layer: "source", How: "Explainer.ReadSource(NewJSONLSource) of the source snapshot", Moves: "none end to end (affidavitd accepts CSV only)"},
	{Name: "source.alloc_mb", Unit: "MB", Better: "lower", Layer: "source", How: "runtime.MemStats.TotalAlloc delta of one CSV ingest", Moves: "peak_rss_mb on cold_large"},
	{Name: "table.records_per_op", Unit: "count", Better: "lower", Layer: "table", How: "affidavit_ingested_records_total, " + howCounters, Moves: "daemon_cpu_s_per_op on dup_async"},
	{Name: "table.dict_values", Unit: "count", Better: "lower", Layer: "table", How: "Session.PoolStats after ExplainPair (DictPool.Values)", Moves: "peak_rss_mb on cold_large"},

	// delta: instances and end-state conversion.
	{Name: "delta.instance_ms", Unit: "ms", Better: "lower", Layer: "delta", How: "NewInstanceWithDicts + Instance.Coded over a pooled dictionary set", Moves: movesCold + "; also warm_chain (pool reuse)"},
	{Name: "delta.build_w1_ms", Unit: "ms", Better: "lower", Layer: "delta", How: "BuildCtx with the search result's tuple, Workers 1", Moves: movesCold},
	{Name: "delta.build_w2_ms", Unit: "ms", Better: "lower", Layer: "delta", How: "BuildCtx with the search result's tuple, Workers 2", Moves: movesCold},
	{Name: "delta.core_share", Unit: "ratio", Better: "higher", Layer: "delta", How: "CoreSize ÷ min(|S|,|T|)", Moves: "none; a drop means a worse explanation, not a slower one"},

	// blocking
	{Name: "blocking.root_ms", Unit: "ms", Better: "lower", Layer: "blocking", How: "blocking.New", Moves: movesCold},
	{Name: "blocking.refine_count_ms", Unit: "ms", Better: "lower", Layer: "blocking", How: "Refine(attr, Identity) reading only TargetSurplus, mean over attributes", Moves: movesCold + "; peak_rss_mb on cold_large"},
	{Name: "blocking.refine_force_ms", Unit: "ms", Better: "lower", Layer: "blocking", How: "Refine(attr, Identity) then Blocks(), mean over attributes", Moves: movesCold + "; peak_rss_mb on cold_large"},
	{Name: "blocking.refine_w2_ms", Unit: "ms", Better: "lower", Layer: "blocking", How: "the forced refinement on a WithWorkers(2) result", Moves: movesCold},

	// induce / align
	{Name: "induce.candidates_ms", Unit: "ms", Better: "lower", Layer: "induce", How: "induce.Candidates per attribute on the root blocking, mean over attributes", Moves: movesCold + " and, for wide schemas, small_mix"},
	{Name: "induce.candidates_per_attr", Unit: "count", Better: "higher", Layer: "induce", How: "candidates returned ÷ attributes", Moves: "none; it is the work the ranking stage receives"},
	{Name: "align.random_ms", Unit: "ms", Better: "lower", Layer: "align", How: "align.Random on the root blocking", Moves: movesCold},
	{Name: "align.greedy_map_ms", Unit: "ms", Better: "lower", Layer: "align", How: "align.GreedyMap over that alignment, key attribute", Moves: movesCold},
	{Name: "align.overlap_ms", Unit: "ms", Better: "lower", Layer: "align", How: "align.ComputeOverlap, first input", Moves: "none at the default Hid start; latency_p50_ms under -start hs"},

	// search
	{Name: "search.run_w1_ms", Unit: "ms", Better: "lower", Layer: "search", How: "search.Run, Workers 1 (sequential engine)", Moves: movesSearch},
	{Name: "search.run_w2_ms", Unit: "ms", Better: "lower", Layer: "search", How: "search.Run, Workers 2 (worker-pool engine)", Moves: movesSearch},
	{Name: "search.par_speedup", Unit: "ratio", Better: "higher", Layer: "search", How: "search.run_w1_ms ÷ search.run_w2_ms on the same tree", Moves: movesSearch},
	{Name: "search.alloc_mb", Unit: "MB", Better: "lower", Layer: "search", How: "runtime.MemStats.TotalAlloc delta of the Workers 2 run", Moves: "peak_rss_mb and daemon_cpu_s_per_op on cold_large"},
	{Name: "search.polls_per_op", Unit: "count", Better: "lower", Layer: "search", How: "affidavit_search_polls_total, " + howCounters, Moves: movesSearch},
	{Name: "search.states_per_op", Unit: "count", Better: "lower", Layer: "search", How: "affidavit_search_states_costed_total, " + howCounters, Moves: movesSearch},
	{Name: "search.enqueued_share", Unit: "ratio", Better: "higher", Layer: "search", How: "Stats.Enqueued ÷ Stats.StatesGenerated (useful ÷ attempted)", Moves: movesSearch},
	{Name: "search.evicted_share", Unit: "ratio", Better: "lower", Layer: "search", How: "Stats.Evicted ÷ Stats.Enqueued", Moves: movesSearch},
	{Name: "search.warm_share", Unit: "ratio", Better: "higher", Layer: "search", How: "affidavit_runs_started_total{mode=warm} ÷ all modes over the plain replay", Moves: "latency_p50_ms on warm_chain"},
	{Name: "search.escalated_share", Unit: "ratio", Better: "lower", Layer: "search", How: "affidavit_runs_started_total{mode=escalated} ÷ all modes over the plain replay", Moves: "latency_p50_ms on warm_chain"},

	// session
	{Name: "session.next_ms", Unit: "ms", Better: "lower", Layer: "session", How: "Explainer.Session + ExplainNext along one chain, steps after the first", Moves: movesWarm},
	{Name: "session.next_polls", Unit: "count", Better: "lower", Layer: "session", How: "Stats.Polls of those steps", Moves: movesWarm},
	{Name: "session.cold_over_warm", Unit: "ratio", Better: "higher", Layer: "session", How: "ExplainPair time ÷ ExplainNext time on the same pairs", Moves: movesWarm},
	{Name: "session.pool_values", Unit: "count", Better: "lower", Layer: "session", How: "Session.PoolStats after the walk", Moves: "peak_rss_mb on warm_chain"},

	// report
	{Name: "report.json_ms", Unit: "ms", Better: "lower", Layer: "report", How: "Result.JSON(table)", Moves: "latency_p50_ms and disk_bytes_per_input_byte on cold_large"},
	{Name: "report.json_kb", Unit: "KB", Better: "lower", Layer: "report", How: "bytes Result.JSON returns", Moves: "disk_bytes_per_input_byte on cold_large"},
	{Name: "report.sql_ms", Unit: "ms", Better: "lower", Layer: "report", How: "Result.SQL(table)", Moves: movesCold},

	// jobs
	{Name: "jobs.address_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "jobs.Address over the explain/v2 parts", Moves: "latency_p50_ms on dup_async"},
	{Name: "jobs.blob_tee_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "Blobs().NewWriter, Write in 4 KiB pieces, Commit — one snapshot", Moves: movesJobs + "; disk_bytes_per_input_byte on dup_async"},
	{Name: "jobs.submit_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "Store.Submit on a store with Options.Dir (journal append + fsync)", Moves: movesJobs},
	{Name: "jobs.submit_mem_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "Store.Submit on an in-memory store; the difference to jobs.submit_ms is the fsync", Moves: movesJobs},
	{Name: "jobs.roundtrip_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "Submit → Wait through a Pool whose Runner only returns the encoded body", Moves: movesJobs},
	{Name: "jobs.result_get_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "Store.Result", Moves: "latency_p50_ms on dup_async"},
	{Name: "jobs.journal_bytes_per_job", Unit: "B", Better: "lower", Layer: "jobs", How: "journal.jsonl size ÷ jobs in the in-process store", Moves: "disk_bytes_per_input_byte on small_mix"},
	{Name: "jobs.replay_ms", Unit: "ms", Better: "lower", Layer: "jobs", How: "jobs.Open on the populated directory", Moves: "affidavitd.restart_ms"},
	{Name: "jobs.dedupe_hit_share", Unit: "ratio", Better: "higher", Layer: "jobs", How: "Δ affidavit_jobs_dedupe_hits_total ÷ Δ (dedupe hits + submitted) over the plain replay", Moves: "throughput_ops_s and disk_bytes_per_input_byte on dup_async"},

	// catalog
	{Name: "catalog.add_snapshot_ms", Unit: "ms", Better: "lower", Layer: "catalog", How: "Store.AddSnapshot on a durable store", Moves: movesCat},
	{Name: "catalog.step_ms", Unit: "ms", Better: "lower", Layer: "catalog", How: "Store.StartStep + FinishStep", Moves: movesCat},
	{Name: "catalog.history_ms", Unit: "ms", Better: "lower", Layer: "catalog", How: "Store.History at chain length 40", Moves: movesCat},
	{Name: "catalog.journal_bytes_per_step", Unit: "B", Better: "lower", Layer: "catalog", How: "catalog.jsonl size ÷ steps", Moves: "disk_bytes_per_input_byte on warm_chain"},
	{Name: "catalog.replay_ms", Unit: "ms", Better: "lower", Layer: "catalog", How: "OpenStore on the populated directory", Moves: "affidavitd.restart_ms"},

	// spill
	{Name: "spill.explain_ms", Unit: "ms", Better: "lower", Layer: "spill", How: "Explainer.ExplainSources under WithMemBudget(16 MiB), first input", Moves: "none end to end today (no workload runs budgeted)"},
	{Name: "spill.bytes", Unit: "B", Better: "lower", Layer: "spill", How: "Stats.SpilledBytes of that run", Moves: "none end to end today"},
	{Name: "spill.slowdown", Unit: "ratio", Better: "lower", Layer: "spill", How: "budgeted ÷ unbudgeted ExplainSources time on the same input", Moves: "none end to end today"},
}
