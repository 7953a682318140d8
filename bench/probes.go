package main

// In-process layer probes: the harness replays each distinct input
// through the pipeline in the daemon's order — ingest → instance and
// interning → search → convert → encode → blob tee → submit and journal →
// result store — calling each layer's exported functions itself, with a
// span around every call. Nothing inside the program is instrumented.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"affidavit"
	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/catalog"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/jobs"
	"affidavit/internal/metafunc"
	"affidavit/internal/search"
	"affidavit/internal/table"
)

const (
	// probeSeed and probeWorkers mirror daemonFlags, so the in-process
	// results are the ones the daemon must reproduce.
	probeSeed    = 1
	probeWorkers = 2
	// spillBudget is the memory budget of the out-of-core probe.
	spillBudget = 16 << 20
	// jobsPerInput is how many no-op jobs each input pushes through the
	// in-process queue.
	jobsPerInput = 8
	// catalogSteps is the chain length of the in-process catalog probe.
	catalogSteps = 40
	// sessionSteps bounds how far the session probe walks a chain.
	sessionSteps = 6
	// teeChunk is the write size the daemon's upload tee produces: the CSV
	// reader pulls the part through a 4 KiB bufio.Reader.
	teeChunk = 4096
)

// samples collects per-metric observations; a metric's reported value is
// the median of its samples unless stated otherwise.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// probeExplainer is the daemon's Explainer configuration, rebuilt from the
// same defaults cmd/affidavitd resolves its flags to.
func probeExplainer(extra ...affidavit.Option) (*affidavit.Explainer, error) {
	opts := append([]affidavit.Option{affidavit.WithSeed(probeSeed), affidavit.WithWorkers(probeWorkers)}, extra...)
	return affidavit.New(opts...)
}

func searchOptions(workers int) search.Options {
	so := search.DefaultOptions()
	so.Seed = probeSeed
	so.Workers = workers
	return so
}

// allocated runs fn and returns the bytes it allocated, in MB.
func allocated(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// jsonlOf renders a table as JSON Lines with the header's column order.
func jsonlOf(t *table.Table) []byte {
	var buf bytes.Buffer
	attrs := t.Schema().Attrs()
	for i := 0; i < t.Len(); i++ {
		buf.WriteByte('{')
		for a, name := range attrs {
			if a > 0 {
				buf.WriteByte(',')
			}
			k, _ := json.Marshal(name)
			v, _ := json.Marshal(t.Value(i, a))
			buf.Write(k)
			buf.WriteByte(':')
			buf.Write(v)
		}
		buf.WriteString("}\n")
	}
	return buf.Bytes()
}

// prober runs the in-process probes of one traced run.
type prober struct {
	rec *recorder
	sm  samples
	ex  *affidavit.Explainer
	ctx context.Context
	dir string // scratch for the in-process job and catalog stores
}

// ingest drains one CSV snapshot exactly as the daemon's upload path does.
func (p *prober) ingest(parent int, req string, raw []byte) (*table.Table, error) {
	var tab *table.Table
	var err error
	mb := allocated(func() {
		took := p.rec.timed(parent, "source.ReadSource(csv)", req, func() {
			tab, err = p.ex.ReadSource(p.ctx, affidavit.NewCSVSource(bytes.NewReader(raw)))
		})
		p.sm.add("source.csv_ms", took)
		p.sm.add("source.csv_mb_s", float64(len(raw))/(1<<20)/(took/1000))
	})
	p.sm.add("source.alloc_mb", mb)
	return tab, err
}

// pairProbe walks one source/target pair through every pair-shaped layer
// and returns the Explainer's cost and polls for it plus the summed stage
// time of the daemon's blocking path.
func (p *prober) pairProbe(name string, srcRaw, tgtRaw []byte, first bool) (cost float64, polls int, stageMS float64, body []byte, err error) {
	root := p.rec.begin(0, "input", name)
	defer p.rec.end(root)

	// source / table
	src, err := p.ingest(root, name, srcRaw)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	tgt, err := p.ingest(root, name, tgtRaw)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	csvMS := p.sm["source.csv_ms"]
	stageMS = csvMS[len(csvMS)-1] + csvMS[len(csvMS)-2]
	jsonl := jsonlOf(src)
	p.sm.add("source.jsonl_ms", p.rec.timed(root, "source.ReadSource(jsonl)", name, func() {
		_, err = p.ex.ReadSource(p.ctx, affidavit.NewJSONLSource(bytes.NewReader(jsonl)))
	}))
	if err != nil {
		return 0, 0, 0, nil, err
	}

	// The daemon's own path for this pair: one ExplainPair on a fresh
	// per-table session, then encode. Its result is the reference every
	// daemon response for the pair must match.
	sess := p.ex.Session(nil)
	var res *affidavit.Result
	pairMS := p.rec.timed(root, "Session.ExplainPair", name, func() {
		res, err = sess.ExplainPairContext(p.ctx, src, tgt)
	})
	if err != nil {
		return 0, 0, 0, nil, err
	}
	_, poolValues := sess.PoolStats()
	p.sm.add("table.dict_values", float64(poolValues))
	jsonMS := p.rec.timed(root, "Result.JSON", name, func() { body, err = res.JSON(name) })
	if err != nil {
		return 0, 0, 0, nil, err
	}
	p.sm.add("report.json_ms", jsonMS)
	p.sm.add("report.json_kb", float64(len(body))/1024)
	p.sm.add("report.sql_ms", p.rec.timed(root, "Result.SQL", name, func() { res.SQL(name) }))
	stageMS += pairMS + jsonMS

	// delta: instance + interning over a shared pool.
	pool := table.NewDictPool()
	var inst *delta.Instance
	p.sm.add("delta.instance_ms", p.rec.timed(root, "delta.NewInstanceWithDicts+Coded", name, func() {
		inst, err = delta.NewInstanceWithDicts(src, tgt, metafunc.DefaultMetas(), pool.DictsFor(src.Schema()))
		if err == nil {
			inst.Coded()
		}
	}))
	if err != nil {
		return 0, 0, 0, nil, err
	}

	// blocking
	var rootBlocks *blocking.Result
	p.sm.add("blocking.root_ms", p.rec.timed(root, "blocking.New", name, func() { rootBlocks = blocking.New(inst) }))
	w2 := rootBlocks.WithWorkers(2)
	d := inst.NumAttrs()
	var countMS, forceMS, w2MS float64
	for attr := 0; attr < d; attr++ {
		// One unmeasured refinement fills the function-application memo
		// the three measured ones then share.
		rootBlocks.Refine(attr, metafunc.Identity{}).TargetSurplus()
		countMS += p.rec.timed(root, "blocking.Refine(count)", name, func() {
			rootBlocks.Refine(attr, metafunc.Identity{}).TargetSurplus()
		})
		forceMS += p.rec.timed(root, "blocking.Refine(force)", name, func() {
			rootBlocks.Refine(attr, metafunc.Identity{}).Blocks()
		})
		w2MS += p.rec.timed(root, "blocking.Refine(force,w2)", name, func() {
			w2.Refine(attr, metafunc.Identity{}).Blocks()
		})
	}
	p.sm.add("blocking.refine_count_ms", countMS/float64(d))
	p.sm.add("blocking.refine_force_ms", forceMS/float64(d))
	p.sm.add("blocking.refine_w2_ms", w2MS/float64(d))

	// induce / align
	so := searchOptions(probeWorkers)
	var candMS float64
	cands := 0
	for attr := 0; attr < d; attr++ {
		rng := rand.New(rand.NewSource(probeSeed + int64(attr)))
		candMS += p.rec.timed(root, "induce.Candidates", name, func() {
			cands += len(induce.Candidates(rootBlocks, attr, inst.Metas, so.Induce, so.Beta, rng))
		})
	}
	p.sm.add("induce.candidates_ms", candMS/float64(d))
	p.sm.add("induce.candidates_per_attr", float64(cands)/float64(d))
	var pairs []align.Pair
	p.sm.add("align.random_ms", p.rec.timed(root, "align.Random", name, func() {
		pairs = align.Random(rootBlocks, rand.New(rand.NewSource(probeSeed)))
	}))
	p.sm.add("align.greedy_map_ms", p.rec.timed(root, "align.GreedyMap", name, func() {
		align.GreedyMap(inst, pairs, d-1)
	}))
	// The overlap matching (the Hs start, off by default) takes ten
	// seconds on a 20 000-row slice; like the spill probe it runs on the
	// first input only, so the budget reaches the other inputs.
	if first {
		p.sm.add("align.overlap_ms", p.rec.timed(root, "align.ComputeOverlap", name, func() {
			align.ComputeOverlap(inst, so.MaxBlockSize)
		}))
	}

	// search, sequential engine and worker pool, on the same tree. Each
	// starts from a collected heap, so the second does not inherit the
	// first one's garbage (nor the probes' before it).
	var sres *search.Result
	runtime.GC()
	w1 := p.rec.timed(root, "search.Run(w1)", name, func() { sres, err = search.Run(p.ctx, inst, searchOptions(1)) })
	if err != nil {
		return 0, 0, 0, nil, err
	}
	var w2run float64
	runtime.GC()
	p.sm.add("search.alloc_mb", allocated(func() {
		w2run = p.rec.timed(root, "search.Run(w2)", name, func() { sres, err = search.Run(p.ctx, inst, so) })
	}))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	p.sm.add("search.run_w1_ms", w1)
	p.sm.add("search.run_w2_ms", w2run)
	p.sm.add("search.par_speedup", w1/w2run)
	st := sres.Stats
	if st.StatesGenerated > 0 {
		p.sm.add("search.enqueued_share", float64(st.Enqueued)/float64(st.StatesGenerated))
	}
	if st.Enqueued > 0 {
		p.sm.add("search.evicted_share", float64(st.Evicted)/float64(st.Enqueued))
	}

	// delta: end-state conversion with the search result's tuple.
	funcs := sres.Explanation.Funcs
	var built *delta.Explanation
	p.sm.add("delta.build_w1_ms", p.rec.timed(root, "delta.BuildCtx(w1)", name, func() {
		built, err = delta.BuildCtx(p.ctx, inst, funcs, delta.BuildOptions{Workers: 1})
	}))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	p.sm.add("delta.build_w2_ms", p.rec.timed(root, "delta.BuildCtx(w2)", name, func() {
		_, err = delta.BuildCtx(p.ctx, inst, funcs, delta.BuildOptions{Workers: 2})
	}))
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if m := min(src.Len(), tgt.Len()); m > 0 {
		p.sm.add("delta.core_share", float64(built.CoreSize())/float64(m))
	}

	// spill: the same pair under a 16 MiB budget against unbudgeted, on
	// the first input only — five searches per input are enough.
	if first {
		if err := p.spillProbe(root, name, srcRaw, tgtRaw); err != nil {
			return 0, 0, 0, nil, err
		}
	}
	return res.Cost, res.Stats.Polls, stageMS, body, nil
}

// spillProbe explains one pair from its CSV bytes with and without a
// memory budget.
func (p *prober) spillProbe(parent int, name string, srcRaw, tgtRaw []byte) error {
	budgeted, err := probeExplainer(affidavit.WithMemBudget(spillBudget))
	if err != nil {
		return err
	}
	run := func(ex *affidavit.Explainer, label string) (float64, *affidavit.Result, error) {
		var res *affidavit.Result
		var err error
		took := p.rec.timed(parent, label, name, func() {
			res, err = ex.ExplainSources(p.ctx, affidavit.NewCSVSource(bytes.NewReader(srcRaw)), affidavit.NewCSVSource(bytes.NewReader(tgtRaw)))
		})
		return took, res, err
	}
	plainMS, _, err := run(p.ex, "Explainer.ExplainSources")
	if err != nil {
		return err
	}
	spillMS, res, err := run(budgeted, "Explainer.ExplainSources(16MiB)")
	if err != nil {
		return err
	}
	p.sm.add("spill.explain_ms", spillMS)
	p.sm.add("spill.bytes", float64(res.Stats.SpilledBytes))
	p.sm.add("spill.slowdown", spillMS/plainMS)
	return nil
}

// jobsProbe pushes no-op jobs carrying the input's real bytes through an
// in-process durable store and worker pool, and returns the per-job stage
// time (blob tee of both uploads + submit→completed round trip).
func (p *prober) jobsProbe(store, mem *jobs.Store, name string, uploads [][]byte, body []byte, n int) (float64, error) {
	root := p.rec.begin(0, "jobs", name)
	defer p.rec.end(root)
	var stage float64
	hashes := make([]string, len(uploads))
	for i, raw := range uploads {
		var err error
		took := p.rec.timed(root, "jobs.BlobWriter.Write+Commit", name, func() {
			bw := store.Blobs().NewWriter()
			for off := 0; off < len(raw) && err == nil; off += teeChunk {
				_, err = bw.Write(raw[off:min(off+teeChunk, len(raw))])
			}
			if err == nil {
				hashes[i], err = bw.Commit()
			}
		})
		if err != nil {
			return 0, err
		}
		p.sm.add("jobs.blob_tee_ms", took)
		stage += took
	}
	var roundtrip []float64
	for k := 0; k < n; k++ {
		tableName := fmt.Sprintf("%s-%d", name, k)
		var addr string
		p.sm.add("jobs.address_ms", p.rec.timed(root, "jobs.Address", name, func() {
			addr = jobs.Address(append([]string{"explain/v2", p.ex.Fingerprint(), tableName, "json"}, hashes...)...)
		}))
		spec := jobs.Spec{Addr: addr, Table: tableName, Format: "json", SourceBlob: hashes[0], TargetBlob: hashes[len(hashes)-1], Payload: body}
		p.sm.add("jobs.submit_mem_ms", p.rec.timed(root, "jobs.Store.Submit(mem)", name, func() { mem.Submit(spec) }))
		var job *jobs.Job
		var err error
		rt := p.rec.begin(root, "jobs.Submit→Wait", name)
		start := time.Now()
		p.sm.add("jobs.submit_ms", p.rec.timed(rt, "jobs.Store.Submit", name, func() { job, _, err = store.Submit(spec) }))
		if err != nil {
			return 0, err
		}
		rec, err := store.Wait(p.ctx, job)
		took := ms(time.Since(start))
		p.rec.end(rt)
		if err != nil {
			return 0, err
		}
		if rec.State != jobs.StateCompleted {
			return 0, fmt.Errorf("probe job %s ended %s: %s", rec.ID, rec.State, rec.Error)
		}
		p.sm.add("jobs.roundtrip_ms", took)
		roundtrip = append(roundtrip, took)
		p.sm.add("jobs.result_get_ms", p.rec.timed(root, "jobs.Store.Result", name, func() { _, _, err = store.Result(rec.ID) }))
		if err != nil {
			return 0, err
		}
	}
	return stage + median(roundtrip), nil
}

// catalogProbe drives an in-process catalog store through a 40-step
// chain. The store never reads snapshot data, so the chain is synthetic:
// only the schema width comes from the workload.
func (p *prober) catalogProbe(schema []string, rows int) (addMS, stepMS, historyMS float64, err error) {
	dir := filepath.Join(p.dir, "catalog")
	root := p.rec.begin(0, "catalog", "probe")
	defer p.rec.end(root)
	store, err := catalog.OpenStore(dir, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	const tableName = "probe"
	if _, err := store.Register(tableName); err != nil {
		return 0, 0, 0, err
	}
	for i := 0; i <= catalogSteps; i++ {
		var snap catalog.Record
		var hasParent bool
		blob := jobs.Address("bench/catalog-probe", fmt.Sprint(i))
		p.sm.add("catalog.add_snapshot_ms", p.rec.timed(root, "catalog.Store.AddSnapshot", "probe", func() {
			snap, _, hasParent, err = store.AddSnapshot(tableName, blob, "bench", rows, schema)
		}))
		if err != nil {
			return 0, 0, 0, err
		}
		if !hasParent {
			continue
		}
		summary := &catalog.StepSummary{Records: rows, Core: rows * 9 / 10, Updates: rows / 2, Inserts: rows / 10, Deletes: rows / 10,
			Cost: 1000, TrivialCost: 4000, Compression: 0.25, Polls: 3,
			Functions: []catalog.StepFunction{{Attribute: schema[0], Kind: "addition", Display: "x ↦ x + 1", Updated: rows / 2}}}
		p.sm.add("catalog.step_ms", p.rec.timed(root, "catalog.Store.StartStep+FinishStep", "probe", func() {
			if _, err = store.StartStep(tableName, snap.SnapshotID, snap.ParentID, blob[:32]); err == nil {
				err = store.FinishStep(tableName, snap.SnapshotID, catalog.StepExplained, "", summary)
			}
		}))
		if err != nil {
			return 0, 0, 0, err
		}
	}
	for i := 0; i < 10; i++ {
		p.sm.add("catalog.history_ms", p.rec.timed(root, "catalog.Store.History", "probe", func() { store.History(tableName) }))
	}
	if info, err := os.Stat(filepath.Join(dir, "catalog.jsonl")); err == nil {
		p.sm.add("catalog.journal_bytes_per_step", float64(info.Size())/catalogSteps)
	}
	if err := store.Close(); err != nil {
		return 0, 0, 0, err
	}
	var reopened *catalog.Store
	p.sm.add("catalog.replay_ms", p.rec.timed(root, "catalog.OpenStore(replay)", "probe", func() { reopened, err = catalog.OpenStore(dir, nil) }))
	if err != nil {
		return 0, 0, 0, err
	}
	reopened.Close()
	return median(p.sm["catalog.add_snapshot_ms"]), median(p.sm["catalog.step_ms"]), median(p.sm["catalog.history_ms"]), nil
}

// stepResult is the in-process outcome of one chain step.
type stepResult struct {
	cost   float64
	polls  int
	nextMS float64
	csvMS  float64
	jsonMS float64
}

// sessionProbe walks the first steps of a chain twice: warm, through one
// session's ExplainNext, and cold, through ExplainPair on the same pairs.
func (p *prober) sessionProbe(name string, snaps [][]byte) ([]stepResult, error) {
	root := p.rec.begin(0, "session", name)
	defer p.rec.end(root)
	n := min(len(snaps)-1, sessionSteps)
	tabs := make([]*table.Table, n+1)
	csvMS := make([]float64, n+1)
	for i := range tabs {
		var err error
		start := time.Now()
		tabs[i], err = p.ex.ReadSource(p.ctx, affidavit.NewCSVSource(bytes.NewReader(snaps[i])))
		csvMS[i] = ms(time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	warm := p.ex.Session(tabs[0])
	out := make([]stepResult, 0, n)
	var warmMS, coldMS []float64
	for s := 1; s <= n; s++ {
		var res *affidavit.Result
		var err error
		took := p.rec.timed(root, "Session.ExplainNext", name, func() { res, err = warm.ExplainNextContext(p.ctx, tabs[s]) })
		if err != nil {
			return nil, err
		}
		jsonMS := p.rec.timed(root, "Result.JSON", name, func() { _, err = res.JSON(name) })
		if err != nil {
			return nil, err
		}
		out = append(out, stepResult{cost: res.Cost, polls: res.Stats.Polls, nextMS: took, csvMS: csvMS[s], jsonMS: jsonMS})
		// The first step of a chain has no previous explanation to start
		// from; it counts as warm only when it is the only step there is.
		if s > 1 || n == 1 {
			warmMS = append(warmMS, took)
			p.sm.add("session.next_ms", took)
			p.sm.add("session.next_polls", float64(res.Stats.Polls))
		}
	}
	cold := p.ex.Session(nil)
	for s := 1; s <= n; s++ {
		if s == 1 && n > 1 {
			continue
		}
		var err error
		coldMS = append(coldMS, p.rec.timed(root, "Session.ExplainPair", name, func() {
			_, err = cold.ExplainPairContext(p.ctx, tabs[s-1], tabs[s])
		}))
		if err != nil {
			return nil, err
		}
	}
	p.sm.add("session.cold_over_warm", median(coldMS)/median(warmMS))
	_, values := warm.PoolStats()
	p.sm.add("session.pool_values", float64(values))
	return out, nil
}
