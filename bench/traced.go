package main

// The traced run: a separate run per workload that produces the
// per-layer numbers. It replays a fixed prefix of the workload's schedule
// three times against fresh daemons — plain, with client-side spans and
// one /traces/{id} fetch per request, and plain at -trace-buffer 0 — so
// the two tracing overheads are differences between replays; then it
// replays the distinct inputs in-process through each layer's exported
// functions.

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"affidavit"
	"affidavit/internal/jobs"
)

// fetchTrace loads one daemon trace.
func (s *session) fetchTrace(id string) (*affidavit.Trace, error) {
	r, err := s.c.get("/traces/" + id)
	if err != nil {
		return nil, err
	}
	var tr affidavit.Trace
	if err := json.Unmarshal(r.body, &tr); err != nil {
		return nil, fmt.Errorf("trace %s does not parse: %w", id, err)
	}
	return &tr, nil
}

// clientSamples folds one traced request into the client-side and
// daemon-trace samples and records its spans.
func (s *session) clientSamples(sm samples, rec *recorder, res opResult, kind opKind) {
	d := res.detail
	if d == nil || res.err != nil {
		return
	}
	req := res.op.table
	root := rec.add(0, "op", req, d.start, d.end)
	if !d.ph.start.IsZero() {
		post := rec.add(root, "POST", req, d.ph.start, d.ph.done)
		rec.add(post, "upload", req, d.ph.start, d.ph.wrote)
		rec.add(post, "wait", req, d.ph.wrote, d.ph.firstByte)
		rec.add(post, "read", req, d.ph.firstByte, d.ph.done)
		sm.add("affidavitd.upload_ms", d.ph.uploadMS())
		sm.add("affidavitd.wait_ms", d.ph.waitMS())
		sm.add("affidavitd.read_ms", d.ph.readMS())
	}
	if kind == opPush {
		sm.add("affidavitd.history_get_ms", d.historyMS)
		sm.add("affidavitd.trends_get_ms", d.trendsMS)
	}
	if res.polls > 0 {
		sm.add("affidavitd.polls_per_op", float64(res.polls))
	}
	if d.traceID == "" {
		return
	}
	fetch := rec.begin(0, "GET trace", req)
	tr, err := s.fetchTrace(d.traceID)
	rec.end(fetch)
	if err != nil {
		s.chk.fail("%v", err)
		return
	}
	for _, stage := range []struct{ metric, span string }{
		// No "finalize": only a cancelled run has that stage, and no
		// workload cancels.
		{"trace.search_ms", "search"}, {"trace.convert_ms", "convert"},
	} {
		if sp := tr.SpanFor(stage.span); sp != nil {
			sm.add(stage.metric, sp.DurationMS)
		}
	}
	if ing := tr.IngestDurationMS(); ing > 0 {
		sm.add("trace.ingest_ms", ing)
	}
	// A dedupe hit carries the trace of the run that produced the bytes,
	// not of this request; only requests that ran say how much of their
	// client time lay outside the run.
	if kind != opAsync {
		sm.add("affidavitd.outside_run_ms", ms(d.ph.done.Sub(d.ph.start))-tr.DurationMS)
	}
}

// serviceProbe issues one request of every kind against the traced
// daemon, so the client-side metrics a workload's own traffic does not
// produce (history reads outside warm_chain, polls outside dup_async)
// are still measured on every workload. Samples from the workload's own
// replay take precedence; these only fill the gaps.
func (s *session) serviceProbe(rec *recorder, srcRaw, tgtRaw, pairBody []byte) (samples, error) {
	sm := make(samples)
	// One sync explain.
	d := &opDetail{start: time.Now()}
	r, err := s.c.explain("probe-sync", pairBody, &d.ph)
	if err != nil {
		return nil, err
	}
	d.end, d.traceID = time.Now(), r.header.Get("X-Affidavit-Trace-Id")
	s.clientSamples(sm, rec, opResult{op: op{table: "probe-sync"}, detail: d}, opExplain)
	// One async explain under a name of its own, so it computes.
	_, polls, err := s.c.explainAsync("probe-async", pairBody, nil)
	if err != nil {
		return nil, err
	}
	sm.add("affidavitd.polls_per_op", float64(polls))
	// One two-snapshot catalog chain with its reads.
	const chainTable = "probe-chain"
	if err := s.c.register(chainTable); err != nil {
		return nil, err
	}
	for i, raw := range [][]byte{srcRaw, tgtRaw} {
		body, err := multipartBody([]string{"snapshot"}, [][]byte{raw})
		if err != nil {
			return nil, err
		}
		if _, err := s.c.push(chainTable, body, i == 0, nil); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	if _, err := s.c.get("/tables/" + chainTable + "/history"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err := s.c.get("/tables/" + chainTable + "/trends"); err != nil {
		return nil, err
	}
	sm.add("affidavitd.history_get_ms", ms(t1.Sub(t0)))
	sm.add("affidavitd.trends_get_ms", ms(time.Since(t1)))
	rec.add(0, "GET history", chainTable, t0, t1)
	rec.add(0, "GET trends", chainTable, t1, time.Now())
	return sm, nil
}

// replay is one replay of the schedule prefix on a fresh daemon.
type replay struct {
	p50      float64
	ph       phase
	before   map[string]float64
	after    map[string]float64
	startMS  float64
	rssMB    float64
	respByte int64
}

// runTraced produces every per-layer metric for one workload.
func runTraced(cfg *config, w *workload) (map[string]value, *tally, error) {
	t := &tally{}
	in, err := w.generate(cfg.seed, cfg.scale)
	if err != nil {
		return nil, t, err
	}
	rec := newRecorder()
	sm := make(samples)
	limit := scaled(w.traceOps, cfg.scale, 4)

	// do runs one replay; traced attaches client spans and one trace fetch
	// after every request.
	var mu sync.Mutex
	do := func(traced bool, extra ...string) (*session, *replay, error) {
		s, _, err := setUp(cfg, w, in, extra...)
		if err != nil {
			return nil, nil, err
		}
		rp := &replay{startMS: ms(s.startTook)}
		if rp.before, err = s.c.counters(); err != nil {
			s.close()
			return nil, nil, err
		}
		var hook func(opResult)
		if traced {
			hook = func(r opResult) {
				mu.Lock()
				defer mu.Unlock()
				s.clientSamples(sm, rec, r, w.kind)
			}
		}
		rp.ph = s.timed(0, limit, hook)
		if rp.after, err = s.c.counters(); err != nil {
			s.close()
			return nil, nil, err
		}
		if rp.rssMB, err = s.d.peakRSSMB(); err != nil {
			s.close()
			return nil, nil, err
		}
		rp.p50 = median(latencies(rp.ph.results))
		for _, r := range rp.ph.results {
			rp.respByte += int64(r.respBytes)
		}
		return s, rp, nil
	}

	// Replay 1: plain. Counter deltas and exact per-op counts come from it.
	s1, plain, err := do(false)
	if err != nil {
		return nil, t, err
	}
	t.add(s1)
	s1.close()
	nOps := float64(len(plain.ph.results))
	if nOps == 0 || plain.p50 == 0 {
		return nil, t, fmt.Errorf("%s: plain replay completed no operation", w.name)
	}
	delta := func(prefix string) float64 { return counterDelta(plain.before, plain.after, prefix) }
	sm.add("affidavitd.response_kb_per_op", float64(plain.respByte)/1024/nOps)
	sm.add("affidavitd.latency_p90_ms", quantile(latencies(plain.ph.results), 0.9))
	sm.add("affidavitd.peak_rss_mb", plain.rssMB)
	sm.add("table.records_per_op", delta("affidavit_ingested_records_total")/nOps)
	sm.add("search.polls_per_op", delta("affidavit_search_polls_total")/nOps)
	sm.add("search.states_per_op", delta("affidavit_search_states_costed_total")/nOps)
	if runs := delta("affidavit_runs_started_total"); runs > 0 {
		sm.add("search.warm_share", delta(`affidavit_runs_started_total{mode="warm"}`)/runs)
		sm.add("search.escalated_share", delta(`affidavit_runs_started_total{mode="escalated"}`)/runs)
	} else {
		sm.add("search.warm_share", 0)
		sm.add("search.escalated_share", 0)
	}
	hits, queued := delta("affidavit_jobs_dedupe_hits_total"), delta("affidavit_jobs_submitted_total")
	if hits+queued > 0 {
		sm.add("jobs.dedupe_hit_share", hits/(hits+queued))
	}

	// Replay 2: traced. Client spans, daemon traces, the service probe,
	// then the SIGKILL/restart gate.
	s2, traced, err := do(true)
	if err != nil {
		return nil, t, err
	}
	defer s2.close()
	sm.add("affidavitd.start_ms", traced.startMS)
	srcRaw, tgtRaw, pairBody, err := in.probePair(0)
	if err != nil {
		return nil, t, err
	}
	fill, err := s2.serviceProbe(rec, srcRaw, tgtRaw, pairBody)
	if err != nil {
		return nil, t, err
	}
	for name, vs := range fill {
		if len(sm[name]) == 0 {
			sm[name] = vs
		}
	}
	restart, err := s2.verify()
	if err != nil {
		return nil, t, err
	}
	sm.add("affidavitd.restart_ms", ms(restart))
	sm.add("affidavitd.build_s", cfg.buildS)
	sm.add("trace.bench_overhead_share", (traced.p50-plain.p50)/plain.p50)

	// Replay 3: plain, daemon tracing off.
	s3, untraced, err := do(false, "-trace-buffer", "0")
	if err != nil {
		return nil, t, err
	}
	t.add(s3)
	s3.close()
	sm.add("trace.daemon_overhead_share", (plain.p50-untraced.p50)/plain.p50)

	// In-process replay of the distinct inputs.
	stage, covered, err := inProcess(cfg, w, in, rec, sm, s2.chk)
	if err != nil {
		return nil, t, err
	}
	// Compare like with like: the plain replay's p50 over the inputs the
	// in-process replay got to.
	var same []opResult
	for _, r := range plain.ph.results {
		if r.op.input < covered {
			same = append(same, r)
		}
	}
	if p50 := median(latencies(same)); p50 > 0 {
		sm.add("affidavitd.unattributed_share", (p50-stage)/p50)
	}
	t.add(s2)

	if _, err := writeTrace(cfg.outDir, w.name, cfg.seed, rec); err != nil {
		return nil, t, err
	}
	out := make(map[string]value, len(perLayer))
	for _, def := range perLayer {
		vs := sm[def.Name]
		if len(vs) == 0 {
			return nil, t, fmt.Errorf("%s: no sample for %s", w.name, def.Name)
		}
		out[def.Name] = value{Value: median(vs), Unit: def.Unit, N: len(vs)}
	}
	return out, t, nil
}

// inProcess runs the layer probes over the workload's distinct inputs
// until the time budget is spent (always at least one input), checks the
// daemon's answers against the in-process Explainer, and returns the
// median summed stage time of one operation's blocking path together
// with the number of leading inputs that sum covers.
func inProcess(cfg *config, w *workload, in *inputs, rec *recorder, sm samples, chk *checker) (stage float64, covered int, err error) {
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-probe-")
	if err != nil {
		return 0, 0, err
	}
	trackDir(dir)
	defer removeDir(dir)
	ex, err := probeExplainer()
	if err != nil {
		return 0, 0, err
	}
	p := &prober{rec: rec, sm: sm, ex: ex, ctx: context.Background(), dir: dir}

	pairStage, jobStage, err := p.inputProbes(cfg, w, in, chk)
	if err != nil {
		return 0, 0, err
	}
	var reopened *jobs.Store
	sm.add("jobs.replay_ms", rec.timed(0, "jobs.Open(replay)", "probe", func() {
		reopened, err = jobs.Open(jobs.Options{Dir: filepath.Join(dir, "jobs")})
	}))
	if err != nil {
		return 0, 0, err
	}
	reopened.Close()

	snaps := in.probeChain()
	schema, err := csv.NewReader(bytes.NewReader(snaps[0])).Read()
	if err != nil {
		return 0, 0, err
	}
	addMS, stepMS, historyMS, err := p.catalogProbe(schema, bytes.Count(snaps[0], []byte("\n"))-1)
	if err != nil {
		return 0, 0, err
	}
	steps, err := p.sessionProbe("chain-0", snaps)
	if err != nil {
		return 0, 0, err
	}

	// The summed stage time of one operation's blocking path, per kind.
	switch w.kind {
	case opPush:
		var sums []float64
		for i, st := range steps {
			chk.expectStep(0, i+1, st.cost, st.polls)
			if i > 0 || len(steps) == 1 {
				sums = append(sums, st.csvMS+st.nextMS+st.jsonMS)
			}
		}
		// Only chain 0 is walked.
		return median(sums) + median(jobStage) + addMS + stepMS + 2*historyMS, 1, nil
	case opAsync:
		// A duplicate pays both ingests, both tees, addressing, the
		// in-memory dedupe path and a result read — and no search.
		csvMS, tee := median(sm["source.csv_ms"]), median(sm["jobs.blob_tee_ms"])
		return 2*csvMS + 2*tee + median(sm["jobs.address_ms"]) + median(sm["jobs.submit_mem_ms"]) + median(sm["jobs.result_get_ms"]), len(pairStage), nil
	default:
		sums := make([]float64, len(pairStage))
		for i := range sums {
			sums[i] = pairStage[i] + jobStage[i]
		}
		return median(sums), len(sums), nil
	}
}

// inputProbes walks the distinct inputs through the pair probe and an
// in-process durable job store, until the time budget is spent (always at
// least one input). It returns, per input, the summed stage time of the
// engine path and of the job path.
func (p *prober) inputProbes(cfg *config, w *workload, in *inputs, chk *checker) (pairStage, jobStage []float64, err error) {
	jobsDir := filepath.Join(p.dir, "jobs")
	store, err := jobs.Open(jobs.Options{Dir: jobsDir})
	if err != nil {
		return nil, nil, err
	}
	defer store.Close()
	mem, err := jobs.Open(jobs.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer mem.Close()
	// The runner only hands back the body the submission carried: what is
	// timed is the queue, the journal and the result store, not a search.
	pool := jobs.NewPool(store, func(_ context.Context, _ jobs.Record, payload any) (*jobs.Outcome, error) {
		return &jobs.Outcome{Body: payload.([]byte), ContentType: "application/json"}, nil
	}, jobs.PoolOptions{Workers: 2})
	pool.Start(p.ctx)
	defer pool.Close()

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < in.probePairs() && (i == 0 || time.Now().Before(deadline)); i++ {
		srcRaw, tgtRaw, _, err := in.probePair(i)
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("input-%02d", i)
		cost, polls, stageMS, body, err := p.pairProbe(name, srcRaw, tgtRaw, i == 0)
		if err != nil {
			return nil, nil, fmt.Errorf("probing %s: %w", name, err)
		}
		if w.kind != opPush {
			chk.expect(i, cost, polls)
		}
		uploads := [][]byte{srcRaw, tgtRaw}
		if w.kind == opPush {
			uploads = uploads[1:] // a push uploads one snapshot
		}
		js, err := p.jobsProbe(store, mem, name, uploads, body, jobsPerInput)
		if err != nil {
			return nil, nil, err
		}
		pairStage = append(pairStage, stageMS)
		jobStage = append(jobStage, js)
	}
	if info, err := os.Stat(filepath.Join(jobsDir, "journal.jsonl")); err == nil {
		p.sm.add("jobs.journal_bytes_per_job", float64(info.Size())/float64(len(jobStage)*jobsPerInput))
	}
	return pairStage, jobStage, nil
}
