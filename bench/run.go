package main

// One workload run: set-up (generate, spawn, seed), the timed closed-loop
// phase, and the verification that follows it — including a SIGKILL and a
// restart on the same directories, after which the daemon must still
// serve exactly the bytes the client received.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// setupReps is how many complete set-ups one end-to-end run performs.
// Each carries a third of the timed seconds; every end-to-end metric,
// setup_s included, is the median over them.
const setupReps = 3

// restartSample is how many retained responses the restart check fetches
// again from /jobs/{id}/result.
const restartSample = 8

// opResult is what the loop records per operation: one latency and
// whether it succeeded. Traced runs attach the client-side detail.
type opResult struct {
	op        op
	latencyMS float64
	err       error
	respBytes int
	polls     int
	detail    *opDetail
}

// opDetail is the extra client-side timing a traced run records.
type opDetail struct {
	ph        phases // the explain or push request
	historyMS float64
	trendsMS  float64
	traceID   string
	start     time.Time
	end       time.Time
}

// session is one live daemon with everything needed to drive and check it.
type session struct {
	w      *workload
	seed   int64
	in     *inputs
	dir    string
	d      *daemon
	c      *client
	chk    *checker
	ops    int   // operations attempted
	upload int64 // CSV bytes uploaded
	// startTook is how long the daemon took from spawn to its first
	// /healthz answer.
	startTook time.Duration
}

// exec performs one operation and checks its response against earlier
// ones. detail is non-nil only in traced runs.
func (s *session) exec(o op, detail *opDetail) opResult {
	res := opResult{op: o, detail: detail}
	start := time.Now()
	var ph *phases
	if detail != nil {
		ph = &detail.ph
		detail.start = start
	}
	var r *reply
	var err error
	switch s.w.kind {
	case opExplain:
		r, err = s.c.explain(o.table, s.in.pairs[o.input].body, ph)
	case opAsync:
		r, res.polls, err = s.c.explainAsync(o.table, s.in.pairs[o.input].body, ph)
	case opPush:
		r, err = s.c.push(o.table, s.in.chains[o.input].bodies[o.step], false, ph)
		if err == nil {
			t1 := time.Now()
			_, err = s.c.get("/tables/" + o.table + "/history")
			t2 := time.Now()
			if err == nil {
				_, err = s.c.get("/tables/" + o.table + "/trends")
			}
			if detail != nil {
				detail.historyMS, detail.trendsMS = ms(t2.Sub(t1)), ms(time.Since(t2))
			}
		}
	}
	end := time.Now()
	res.latencyMS = ms(end.Sub(start))
	if detail != nil {
		detail.end = end
	}
	if err == nil && res.latencyMS > ms(opTimeout) {
		err = fmt.Errorf("%s: took %.0f ms, limit %v", o.table, res.latencyMS, opTimeout)
	}
	if err != nil {
		res.err = err
		s.chk.fail("%v", err)
		return res
	}
	res.respBytes = len(r.body)
	if detail != nil {
		detail.traceID = r.header.Get("X-Affidavit-Trace-Id")
	}
	if !s.chk.observe(o, r) {
		res.err = fmt.Errorf("%s: response mismatch", o.table)
	}
	return res
}

func (s *session) uploadBytes(o op) int64 {
	if s.w.kind == opPush {
		return int64(len(s.in.chains[o.input].snaps[o.step]))
	}
	p := s.in.pairs[o.input]
	return int64(len(p.src) + len(p.tgt))
}

// note folds one finished operation into the session tallies.
func (s *session) note(res opResult) {
	s.ops++
	s.upload += s.uploadBytes(res.op)
}

// setUp generates the workload's inputs (unless the caller hands in a set
// it already generated), spawns a fresh daemon over a fresh directory and
// runs the seeding operations. The seconds it returns are setup_s; the
// daemon build is never part of them.
func setUp(cfg *config, w *workload, in *inputs, extra ...string) (*session, float64, error) {
	start := time.Now()
	if in == nil {
		var err error
		if in, err = w.generate(cfg.seed, cfg.scale); err != nil {
			return nil, 0, err
		}
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	trackDir(dir)
	d, startTook, err := startDaemon(cfg.daemonBin, filepath.Join(dir, "jobs"), extra...)
	if err != nil {
		removeDir(dir)
		return nil, 0, err
	}
	s := &session{w: w, seed: cfg.seed, in: in, dir: dir, d: d, c: newClient(d.base), chk: newChecker(w.kind, in), startTook: startTook}
	if w.kind == opPush {
		for _, ch := range in.chains {
			if err := s.c.register(ch.name); err != nil {
				s.close()
				return nil, 0, err
			}
			if _, err := s.c.push(ch.name, ch.bodies[0], true, nil); err != nil {
				s.close()
				return nil, 0, err
			}
			s.upload += int64(len(ch.snaps[0]))
		}
	}
	for _, o := range w.warmup(in) {
		s.note(s.exec(o, nil))
	}
	return s, time.Since(start).Seconds(), nil
}

// close kills the daemon and removes its directories.
func (s *session) close() {
	s.c.close()
	s.d.kill()
	removeDir(s.dir)
}

// mark is one reading at a round boundary of client 0: the clock, the
// operations completed by all clients so far, and the daemon's CPU time.
type mark struct {
	t   time.Time
	ops int64
	cpu float64
}

// phase is the outcome of one timed phase.
type phase struct {
	results []opResult
	marks   []mark
}

// roundRates returns the operations completed per second of every round.
// This sandbox's processors flip between speed states that last seconds;
// a rate over the whole phase averages whichever states it happened to
// cross, while the median over rounds — each the same mix of inputs —
// reads the state the phase spent most of its time in.
func (ph *phase) roundRates() []float64 {
	var opsPerS []float64
	for i := 1; i < len(ph.marks); i++ {
		a, b := ph.marks[i-1], ph.marks[i]
		if n := b.ops - a.ops; n > 0 && b.t.After(a.t) {
			opsPerS = append(opsPerS, float64(n)/b.t.Sub(a.t).Seconds())
		}
	}
	return opsPerS
}

// cpuPerOp is the daemon CPU seconds per operation from the first to the
// last round boundary. CPU time ticks in 10 ms, too coarse to read per
// round where a round is four 60 ms operations.
func (ph *phase) cpuPerOp() float64 {
	if len(ph.marks) < 2 {
		return 0
	}
	first, last := ph.marks[0], ph.marks[len(ph.marks)-1]
	if last.ops == first.ops {
		return 0
	}
	return (last.cpu - first.cpu) / float64(last.ops-first.ops)
}

// timed drives the workload's schedule in a closed loop from its clients
// until the first round boundary after the deadline, or until a bounded
// schedule runs out. limit > 0 caps the operations per client instead
// (traced replays run a fixed prefix of the schedule). traced, when
// non-nil, makes every operation record its client-side detail and
// receives each result right after the operation, on the client's
// goroutine.
func (s *session) timed(seconds float64, limit int, traced func(opResult)) phase {
	perClient := make([][]opResult, s.w.clients)
	var ph phase
	var done atomic.Int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	round := s.w.round(s.in)
	var wg sync.WaitGroup
	for c := 0; c < s.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// A bug in the harness must not leave the run half-reported:
			// the panic becomes a failed check and the run exits non-zero.
			defer func() {
				if p := recover(); p != nil {
					s.chk.fail("client %d panicked: %v", c, p)
				}
			}()
			next := s.w.schedule(s.in, s.seed, c)
			for i := 0; limit <= 0 || i < limit; i++ {
				if i%round == 0 {
					if c == 0 {
						cpu, _ := s.d.cpuSeconds()
						ph.marks = append(ph.marks, mark{time.Now(), done.Load(), cpu})
					}
					if limit <= 0 && !time.Now().Before(deadline) {
						break
					}
				}
				o, ok := next(i)
				if !ok {
					break
				}
				var detail *opDetail
				if traced != nil {
					detail = &opDetail{}
				}
				res := s.exec(o, detail)
				perClient[c] = append(perClient[c], res)
				done.Add(1)
				if traced != nil {
					traced(res)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, rs := range perClient {
		for _, r := range rs {
			s.note(r)
		}
		ph.results = append(ph.results, rs...)
	}
	return ph
}

// historyStatus is the slice of /history the gate reads.
type historyStatus struct {
	Steps []struct {
		Status string `json:"status"`
	} `json:"steps"`
}

// verify runs the post-phase gate: every retained response validates;
// each pushed chain shows exactly its pushes as explained steps; and
// after a SIGKILL and a restart on the same directories the daemon serves
// the same /history bytes and the same result bytes the client received.
// It returns the kill→ready time of the restart.
func (s *session) verify() (time.Duration, error) {
	if n := s.chk.finish(); n > 0 {
		fmt.Fprintf(os.Stderr, "note: %s: %d of %d chain steps cost more than the trivial explanation\n", s.w.name, n, len(s.chk.retained()))
	}
	histories := make(map[string][]byte)
	if s.w.kind == opPush {
		pushed := make(map[string]int)
		for _, e := range s.chk.retained() {
			pushed[e.op.table]++
		}
		for _, ch := range s.in.chains {
			r, err := s.c.get("/tables/" + ch.name + "/history")
			s.chk.checked()
			if err != nil {
				s.chk.fail("%v", err)
				continue
			}
			histories[ch.name] = r.body
			var h historyStatus
			if err := json.Unmarshal(r.body, &h); err != nil {
				s.chk.fail("%s history does not parse: %v", ch.name, err)
				continue
			}
			explained := 0
			for _, st := range h.Steps {
				if st.Status == "explained" {
					explained++
				}
			}
			if explained != pushed[ch.name] || len(h.Steps) != pushed[ch.name] {
				s.chk.fail("%s history shows %d steps, %d explained; pushed %d", ch.name, len(h.Steps), explained, pushed[ch.name])
			}
		}
	}
	s.c.close()
	nd, took, err := s.d.restart()
	if err != nil {
		return 0, fmt.Errorf("restart on populated directories: %w", err)
	}
	s.d, s.c = nd, newClient(nd.base)
	names := make([]string, 0, len(histories))
	for name := range histories {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.chk.checked()
		r, err := s.c.get("/tables/" + name + "/history")
		if err != nil {
			s.chk.fail("after restart: %v", err)
		} else if !bytes.Equal(r.body, histories[name]) {
			s.chk.fail("after restart: %s history bytes changed", name)
		}
	}
	sample := s.chk.retained()
	if len(sample) > restartSample {
		// Spread the sample over the whole retained sequence.
		picked := make([]*kept, restartSample)
		for i := range picked {
			picked[i] = sample[i*len(sample)/restartSample]
		}
		sample = picked
	}
	for _, e := range sample {
		s.chk.checked()
		if e.jobID == "" {
			s.chk.fail("%s: response carried no X-Affidavit-Job-Id", e.op.table)
			continue
		}
		r, err := s.c.get("/jobs/" + e.jobID + "/result")
		if err != nil {
			s.chk.fail("after restart: %v", err)
		} else if !bytes.Equal(r.body, e.body) {
			s.chk.fail("after restart: job %s result differs from what the client received", e.jobID)
		}
	}
	return took, nil
}

// tally is the correct/attempted/failed triple a run reports.
type tally struct {
	attempted int
	failed    int
	failures  []string
}

func (t *tally) add(s *session) {
	t.attempted += s.ops + s.chk.checks
	t.failed += len(s.chk.failures)
	t.failures = append(t.failures, s.chk.failures...)
}
