package main

// The four named workloads. Each is a seeded input set plus a
// deterministic operation schedule; loop type is closed everywhere —
// affidavitd's callers are pipelines that wait for the explanation before
// they proceed.

import (
	"fmt"
	"math/rand"
)

// opKind is what one operation of a workload does.
type opKind int

const (
	// opExplain is one synchronous POST /explain until the body is read.
	opExplain opKind = iota
	// opPush is one synchronous snapshot push followed by GET /history and
	// GET /trends of the same table.
	opPush
	// opAsync is POST /explain?async=1, then polling the result path every
	// 2 ms until it answers 200 and the result bytes are read.
	opAsync
)

// op is one scheduled operation.
type op struct {
	input int    // pair index, or chain index for opPush
	step  int    // snapshot index within the chain (opPush)
	table string // table name the request carries
}

// workload describes one traffic mix.
type workload struct {
	name    string
	why     string // one line, copied into BENCHMARK.json
	kind    opKind
	clients int
	// generate builds the inputs from the harness seed; scale < 1 shrinks
	// row counts for the smoke test.
	generate func(seed int64, scale float64) (*inputs, error)
	// warmup lists the operations the set-up phase runs before timing
	// starts (after table registration and first pushes for opPush).
	warmup func(in *inputs) []op
	// schedule returns client c's operation stream: next yields the i-th
	// timed operation, or ok=false once a bounded schedule is exhausted.
	schedule func(in *inputs, seed int64, c int) func(i int) (op, bool)
	// traceOps is how many operations per client the traced run replays: a
	// fixed prefix of the schedule, so its counts repeat for a seed.
	traceOps int
	// sizes is the human description of the input sizes for the ledger.
	sizes string
}

const (
	coldRows   = 20000 // flight-500k slice per cold_large pair (Figure 5 reference size)
	coldPairs  = 5     // odd, so the median operation falls inside one pair's cluster, not between two
	smallRows  = 2000  // cap per small_mix dataset
	smallPer   = 2     // generator seeds per small_mix dataset
	chainRows  = 20000
	chainSteps = 40
	chainCount = 4
	dupRows    = 5000
	dupPairs   = 8
)

// roundRobin is the schedule of the two cold sync workloads: pair after
// pair, every request under a table name of its own so nothing dedupes
// or warm-starts by accident. Names have a fixed width so repeats of one
// pair are byte-comparable after masking the name.
func roundRobin(prefix string) func(in *inputs, seed int64, c int) func(int) (op, bool) {
	return func(in *inputs, _ int64, _ int) func(int) (op, bool) {
		return func(i int) (op, bool) {
			return op{input: i % len(in.pairs), table: fmt.Sprintf("%s-%07d", prefix, i)}, true
		}
	}
}

// onePass is a warm-up that touches the first n pairs once each, under
// names the timed phase never uses.
func onePass(prefix string, n int) func(in *inputs) []op {
	return func(in *inputs) []op {
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{input: i, table: fmt.Sprintf("%s-w%06d", prefix, i)}
		}
		return ops
	}
}

var workloads = []workload{
	{
		name:    "cold_large",
		why:     "few huge tables, cold, sync: per-row work (ingest, blocking, induction, search, matching, JSON encoding) dominates and fixed per-request cost vanishes",
		kind:    opExplain,
		clients: 1,
		sizes:   fmt.Sprintf("%d distinct flight-500k pairs from a %d-row slice (η=0.3, τ=0.3), round-robin, distinct table per request", coldPairs, coldRows),
		generate: func(seed int64, scale float64) (*inputs, error) {
			pairs, err := flightPairs(seed, scaled(coldRows, scale, 400), coldPairs)
			return &inputs{pairs: pairs}, err
		},
		traceOps: 6,
		warmup:   onePass("cl", 2),
		schedule: roundRobin("cl"),
	},
	{
		name:    "small_mix",
		why:     "many small tables over all 17 schemas, cold, sync: multipart parsing, session creation, job submit, journal fsyncs and result-store writes are the bulk of each request",
		kind:    opExplain,
		clients: 1,
		sizes:   fmt.Sprintf("17 registry datasets (5..181 attributes) capped at %d rows, %d generator seeds each = 34 pairs, round-robin, distinct table per request", smallRows, smallPer),
		generate: func(seed int64, scale float64) (*inputs, error) {
			pairs, err := smallPairs(seed, scaled(smallRows, scale, 100), smallPer)
			return &inputs{pairs: pairs}, err
		},
		traceOps: 34,
		warmup:   onePass("sm", 4),
		schedule: roundRobin("sm"),
	},
	{
		name:     "warm_chain",
		why:      "catalog pushes with reads beside the writes: one upload, pooled dictionary, warm-started search, two journals per step, history and trends that grow with the chain",
		kind:     opPush,
		clients:  1,
		traceOps: 32,
		sizes:    fmt.Sprintf("%d gen.MakeChain chains of flight-500k from a %d-row slice, %d steps, η=0.1, τ=0.5, stable keys; round-robin over chains; op = push + GET history + GET trends", chainCount, chainRows, chainSteps),
		generate: func(seed int64, scale float64) (*inputs, error) {
			chains, err := flightChains(seed, scaled(chainRows, scale, 1000), scaled(chainSteps, scale, 4), chainCount)
			return &inputs{chains: chains}, err
		},
		// Set-up registers the tables and pushes snapshot 0; the warm-up is
		// each chain's first step, the only one that searches cold.
		warmup: func(in *inputs) []op {
			ops := make([]op, len(in.chains))
			for c := range ops {
				ops[c] = op{input: c, step: 1, table: in.chains[c].name}
			}
			return ops
		},
		schedule: func(in *inputs, _ int64, _ int) func(int) (op, bool) {
			n := len(in.chains)
			return func(i int) (op, bool) {
				c, step := i%n, 2+i/n
				if step >= len(in.chains[c].snaps) {
					return op{}, false
				}
				return op{input: c, step: step, table: in.chains[c].name}, true
			}
		},
	},
	{
		name:     "dup_async",
		why:      "duplicate-heavy async traffic from 2 clients: every timed submission dedupes, so the cost is upload streaming, blob tee + SHA-256, addressing, the dedupe path and result reads",
		kind:     opAsync,
		clients:  2,
		traceOps: 100,
		sizes:    fmt.Sprintf("%d distinct flight-500k pairs from a %d-row slice, one table name per pair (shared content address), seeded random schedule, 2 concurrent clients, poll every 2 ms", dupPairs, dupRows),
		generate: func(seed int64, scale float64) (*inputs, error) {
			pairs, err := flightPairs(seed, scaled(dupRows, scale, 200), dupPairs)
			return &inputs{pairs: pairs}, err
		},
		// The warm-up submits every pair twice: the first computes, the
		// second must already dedupe. Every timed submission is a duplicate.
		warmup: func(in *inputs) []op {
			var ops []op
			for rep := 0; rep < 2; rep++ {
				for i := range in.pairs {
					ops = append(ops, op{input: i, table: dupTable(i)})
				}
			}
			return ops
		},
		schedule: func(in *inputs, seed int64, c int) func(int) (op, bool) {
			rng := rand.New(rand.NewSource(subSeed(seed, 100+c)))
			n := len(in.pairs)
			return func(int) (op, bool) {
				i := rng.Intn(n)
				return op{input: i, table: dupTable(i)}, true
			}
		},
	},
}

// asyncRound is the round length of the random schedule, which has no
// passes of its own: long enough (≈1.5 s) for a rate, short enough for
// several per phase.
const asyncRound = 64

// round is how many operations of one client make one pass over the
// inputs. A timed phase ends at the first round boundary after its
// deadline, so every input is measured equally often and the mix behind a
// median does not depend on where the clock cut it; rates are taken per
// round.
func (w *workload) round(in *inputs) int {
	switch w.kind {
	case opExplain:
		return len(in.pairs)
	case opPush:
		return len(in.chains)
	}
	return asyncRound
}

func dupTable(i int) string { return fmt.Sprintf("dup-%02d", i) }

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
