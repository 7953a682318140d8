// Package induce learns attribute functions from the noisy input–output
// examples a blocking result yields (Section 4.4): it samples target
// records from mixed blocks, induces candidate functions from every source
// value in the same block, filters candidates by how many distinct sampled
// targets generated them, and ranks the survivors by estimated histogram
// overlap on a Cochran-sized sample of source records.
package induce

import (
	"bytes"
	"cmp"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"sync"

	"affidavit/internal/blocking"
	"affidavit/internal/metafunc"
)

// Config carries the statistical parameters of Sections 4.4.2–4.4.3.
type Config struct {
	// Theta is θ: the estimated fraction of target records on which the
	// optimal function's effect is visible. The paper's value is 0.1
	// (Defaults); an explicit 0 is honoured and means minimal sampling —
	// SampleSize falls to the MinGenerated floor and overlap ranking
	// samples nothing.
	Theta float64
	// Rho is ρ: the confidence level for the induction sample. The paper's
	// value is 0.95 (Defaults); an explicit 0 is honoured.
	Rho float64
	// MinGenerated is the generation-count threshold at full sample size k;
	// k is chosen so the optimal function reaches it with confidence ρ.
	// Default 5. When fewer than k targets exist the threshold scales down
	// proportionally (DESIGN.md §4.2).
	MinGenerated int
	// MaxRanked caps how many filtered candidates enter the expensive
	// ranking stage (kept by generation count). Default 64.
	MaxRanked int
	// MaxSourceValuesPerBlock caps the distinct source values considered
	// per sampled target when its block is still very coarse. Default 1000.
	MaxSourceValuesPerBlock int
	// Runner, when non-nil, runs n independent tasks (which may execute
	// concurrently) and returns once all are done. It parallelises the
	// induction and ranking stages; nil runs them inline. Tasks must be
	// treated as order-independent.
	Runner func(n int, task func(i int))
}

// Defaults is the paper's evaluation configuration.
var Defaults = Config{
	Theta:                   0.1,
	Rho:                     0.95,
	MinGenerated:            5,
	MaxRanked:               64,
	MaxSourceValuesPerBlock: 1000,
}

// withDefaults fills zero structural caps. Theta and Rho pass through
// unchanged: zero is a meaningful (if degenerate) setting — θ = 0 samples
// only the MinGenerated floor and skips overlap sampling entirely, ρ = 0
// demands no confidence — so front-ends can express it explicitly instead
// of having it silently swapped for the paper defaults.
func (c Config) withDefaults() Config {
	d := Defaults
	d.Theta = c.Theta
	d.Rho = c.Rho
	if c.MinGenerated > 0 {
		d.MinGenerated = c.MinGenerated
	}
	if c.MaxRanked > 0 {
		d.MaxRanked = c.MaxRanked
	}
	if c.MaxSourceValuesPerBlock > 0 {
		d.MaxSourceValuesPerBlock = c.MaxSourceValuesPerBlock
	}
	d.Runner = c.Runner
	return d
}

// runner returns the configured Runner or an inline fallback.
func (c Config) runner() func(int, func(int)) {
	if c.Runner != nil {
		return c.Runner
	}
	return func(n int, task func(int)) {
		for i := 0; i < n; i++ {
			task(i)
		}
	}
}

// SampleSize returns the smallest k such that a Binomial(k, theta) variable
// X satisfies P(X ≥ minGen) ≥ rho (Section 4.4.2): sampling k target
// records generates the optimal function at least minGen times with
// confidence rho.
func SampleSize(theta, rho float64, minGen int) int {
	if theta <= 0 || theta >= 1 || minGen <= 0 {
		return minGen
	}
	const cap = 100000
	for k := minGen; k <= cap; k++ {
		if binomUpperTail(k, theta, minGen) >= rho {
			return k
		}
	}
	return cap
}

// binomUpperTail computes P(X ≥ n) for X ~ Bin(k, p).
func binomUpperTail(k int, p float64, n int) float64 {
	// Sum the lower tail P(X < n) with incremental pmf updates.
	q := 1 - p
	pmf := math.Pow(q, float64(k)) // P(X = 0)
	lower := 0.0
	for i := 0; i < n; i++ {
		lower += pmf
		// pmf(i+1) = pmf(i) * (k-i)/(i+1) * p/q
		pmf *= float64(k-i) / float64(i+1) * p / q
	}
	if lower > 1 {
		lower = 1
	}
	return 1 - lower
}

// CochranSize returns Cochran's sample size k′ = z²·p·(1−p)/e² with
// z = 1.96 and e = 0.05 (Section 4.4.3), rounded up.
func CochranSize(p float64) int {
	const z, e = 1.96, 0.05
	return int(math.Ceil(z * z * p * (1 - p) / (e * e)))
}

// Candidate is a ranked function candidate for one attribute.
type Candidate struct {
	Func metafunc.Func
	// Generated counts the distinct sampled target records that induced
	// this function (Section 4.4.2's significance statistic).
	Generated int
	// Overlap is the total estimated histogram overlap (Section 4.4.3).
	Overlap int
	// Score is Overlap − ψ(Func), the ranking criterion.
	Score int
}

// Candidates is New(metas, cfg).Candidates(r, attr, top, rng), for a caller
// that asks once; a search builds one Inducer per run instead.
func Candidates(r *blocking.Result, attr int, metas []metafunc.Meta, cfg Config, top int, rng *rand.Rand) []Candidate {
	return New(metas, cfg).Candidates(r, attr, top, rng)
}

// Inducer induces candidates with everything that is constant over a run
// resolved once: the defaulted configuration, the Runner, and the two
// sample sizes. It is safe for concurrent use.
type Inducer struct {
	cfg       Config
	metas     []metafunc.Meta
	run       func(int, func(int))
	k, kPrime int // SampleSize and CochranSize of cfg
}

// New returns the Inducer for one meta-function library and configuration.
func New(metas []metafunc.Meta, cfg Config) *Inducer {
	cfg = cfg.withDefaults()
	return &Inducer{
		cfg: cfg, metas: metas, run: cfg.runner(),
		k:      SampleSize(cfg.Theta, cfg.Rho, cfg.MinGenerated),
		kPrime: CochranSize(cfg.Theta),
	}
}

// denseIDs hands out call-local dense ids for sparse int32 keys in [0, size)
// — value codes, block indices — without hashing and without clearing
// between uses: slot[k] holds floor+id and counts only while it is ≥ floor.
type denseIDs struct {
	slot     []int32
	floor, n int32
}

// begin retires every id handed out so far and sizes the key space.
func (d *denseIDs) begin(size int) {
	d.floor, d.n = d.floor+d.n, 0
	if len(d.slot) < size {
		d.slot, d.floor = make([]int32, size), 1
	} else if d.floor > math.MaxInt32/2 {
		clear(d.slot)
		d.floor = 1
	}
}

// id returns k's id, assigning the next one (fresh = true) on first sight.
func (d *denseIDs) id(k int32) (id int32, fresh bool) {
	if v := d.slot[k]; v >= d.floor {
		return v - d.floor, false
	}
	d.slot[k] = d.floor + d.n
	d.n++
	return d.n - 1, true
}

// lookup returns k's id, or a negative number when it has none.
func (d *denseIDs) lookup(k int32) int32 { return d.slot[k] - d.floor }

type (
	// tref is one target record of mixed block number block.
	tref struct{ block, rec int32 }
	// task induces once for every sampled target of one block that carries
	// value code out: n targets, vals[lo:hi] the block's source codes.
	task struct {
		out, n, lo, hi int32
		funcs          []induced
	}
	// induced is a function one task induced, with the hash of its key.
	induced struct {
		hash uint64
		f    metafunc.Func
	}
	// run is one histogram bar: n records carry the value with local id id.
	run struct{ id, n int32 }
	// span delimits a sampled block's source bars runs[lo:mid] and target
	// bars runs[mid:hi].
	span struct{ lo, mid, hi int32 }
	// ranked is a candidate with its sort keys precomputed.
	ranked struct {
		Candidate
		key    string
		params int
	}
)

// scratch is the pooled working set of one Candidates call. The serial
// parts of the call write it; induction and ranking tasks only read it.
type scratch struct {
	codes, blocks denseIDs
	targets       []tref
	sources       []int32 // mixed-block number per source record
	vals          []int32 // distinct source codes per sampled block, flat
	tasks         []task
	local         []int32 // local value id → code
	pos           []int32 // local value id → 1 + its bar in the open histogram
	runs          []run
	spans         []span
}

func (sc *scratch) reset() {
	sc.targets, sc.sources, sc.vals, sc.tasks = sc.targets[:0], sc.sources[:0], sc.vals[:0], sc.tasks[:0]
	sc.local, sc.pos, sc.runs, sc.spans = sc.local[:0], sc.pos[:0], sc.runs[:0], sc.spans[:0]
}

// workScratch is the pooled working set of one induction or ranking task.
type workScratch struct {
	key     []byte  // induction: the current function's key bytes
	keys    keySet  // induction: the keys the task has seen
	applied []int32 // ranking: local value id → local id of f's output + 1, 0 = unset, -1 = not a sampled value
	count   []int32 // ranking: local value id → records mapped onto it in the open block
	touched []int32
}

func (ws *workScratch) reset(values int) {
	ws.keys.reset()
	if cap(ws.applied) < values {
		ws.applied, ws.count = make([]int32, values), make([]int32, values)
	}
	ws.applied, ws.count = ws.applied[:values], ws.count[:values]
	clear(ws.applied)
}

// keySet is the set of function keys one induction task has seen: open
// addressing on the key's hash, equality decided on the key bytes, which it
// keeps in one arena — no string and no map entry per function. reset
// readies it, also for its first use.
type keySet struct {
	slots   []int32 // 1 + index of the key in hashes/ends, 0 = free
	touched []int32 // occupied slots
	hashes  []uint64
	ends    []int32 // key i is arena[ends[i]:ends[i+1]]; ends[0] = 0
	arena   []byte
}

func (s *keySet) reset() {
	if 4*len(s.touched) < len(s.slots) {
		for _, i := range s.touched {
			s.slots[i] = 0
		}
	} else {
		clear(s.slots)
	}
	s.touched, s.hashes, s.ends, s.arena = s.touched[:0], s.hashes[:0], append(s.ends[:0], 0), s.arena[:0]
}

// add records key, whose hash is h, and reports whether it was new.
func (s *keySet) add(h uint64, key []byte) bool {
	if 2*len(s.hashes) >= len(s.slots) {
		s.slots, s.touched = make([]int32, max(64, 2*len(s.slots))), s.touched[:0]
		for i, h := range s.hashes {
			s.place(h, int32(i)+1)
		}
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; s.slots[i] != 0; i = (i + 1) & mask {
		if e := s.slots[i] - 1; s.hashes[e] == h && bytes.Equal(s.arena[s.ends[e]:s.ends[e+1]], key) {
			return false
		}
	}
	s.hashes, s.arena = append(s.hashes, h), append(s.arena, key...)
	s.ends = append(s.ends, int32(len(s.arena)))
	s.place(h, int32(len(s.hashes)))
	return true
}

// place puts entry e into the first free slot of h's probe sequence.
func (s *keySet) place(h uint64, e int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = e
	s.touched = append(s.touched, int32(i))
}

// hashSeed keys the function-key hashes. They only group equal keys within
// one call, so results do not depend on it.
var hashSeed = maphash.MakeSeed()

var (
	scratchPool = sync.Pool{New: func() any { return new(scratch) }}
	workPool    = sync.Pool{New: func() any { return new(workScratch) }}
)

// Candidates induces, filters and ranks function candidates for attribute
// attr under blocking result r, returning the best ones in rank order
// (highest score first). At most top candidates are returned; top ≤ 0
// returns all ranked survivors.
func (in *Inducer) Candidates(r *blocking.Result, attr, top int, rng *rand.Rand) []Candidate {
	mixed := r.MixedBlocks()
	if len(mixed) == 0 {
		return nil
	}
	coded := r.Coded()
	vals := coded.Dicts[attr].Snapshot()
	srcCodes, tgtCodes := coded.Src[attr], coded.Tgt[attr]
	sc := scratchPool.Get().(*scratch)
	sc.reset()
	defer scratchPool.Put(sc)

	// --- Stage 1: induce candidates from sampled target records. ---
	targets := sc.targets
	for bi, b := range mixed {
		for _, t := range b.Tgt {
			targets = append(targets, tref{block: int32(bi), rec: t})
		}
	}
	sc.targets = targets
	sampled := len(targets)
	if sampled > in.k {
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		targets = targets[:in.k]
		sampled = in.k
	}
	// Every sampled target of one block with one value induces the same
	// functions, so induction runs once per distinct (block, value) and
	// counts n generations. Tasks and each block's distinct source codes are
	// laid out serially in first-appearance order, so the capping shuffles
	// draw from rng in a deterministic sequence; induction below is then
	// rng-free and may run in parallel.
	sc.blocks.begin(len(mixed))
	taskOf := make(map[[2]int32]int32, len(targets)) // (block, target value code) → task
	srcVals, spans, tasks := sc.vals, sc.spans, sc.tasks
	for _, tr := range targets {
		if _, fresh := sc.blocks.id(tr.block); fresh { // its id indexes spans
			lo := len(srcVals)
			sc.codes.begin(int(coded.Base[attr]))
			for _, s := range mixed[tr.block].Src {
				if _, fresh := sc.codes.id(srcCodes[s]); fresh {
					srcVals = append(srcVals, srcCodes[s])
				}
			}
			if vs := srcVals[lo:]; len(vs) > in.cfg.MaxSourceValuesPerBlock {
				rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
				srcVals = srcVals[:lo+in.cfg.MaxSourceValuesPerBlock]
			}
			spans = append(spans, span{lo: int32(lo), hi: int32(len(srcVals))})
		}
		key := [2]int32{tr.block, tgtCodes[tr.rec]}
		ti, ok := taskOf[key]
		if !ok {
			ti = int32(len(tasks))
			taskOf[key] = ti
			sp := spans[sc.blocks.lookup(tr.block)]
			if int(ti) < cap(tasks) {
				tasks = tasks[:ti+1] // a slot of an earlier call: reuse its funcs buffer
			} else {
				tasks = append(tasks, task{})
			}
			tasks[ti] = task{out: key[1], lo: sp.lo, hi: sp.hi, funcs: tasks[ti].funcs[:0]}
		}
		tasks[ti].n++
	}
	sc.vals, sc.spans, sc.tasks = srcVals, spans, tasks
	// A task dedups the functions it induces on their key bytes (keySet) and
	// keeps each under the hash of its key: no key string and no shared
	// table on this path. Metas are applied directly instead of through
	// metafunc.InduceAll: no meta family emits duplicate keys on one
	// example, so the per-task dedup subsumes InduceAll's per-example dedup.
	in.run(len(tasks), func(i int) {
		ws := workPool.Get().(*workScratch)
		ws.reset(0)
		key := ws.key
		t := &tasks[i]
		out := vals[t.out]
		for _, c := range srcVals[t.lo:t.hi] {
			for _, m := range in.metas {
				for _, f := range m.Induce(vals[c], out) {
					key = metafunc.AppendKey(key[:0], f)
					if h := maphash.Bytes(hashSeed, key); ws.keys.add(h, key) {
						t.funcs = append(t.funcs, induced{hash: h, f: f})
					}
				}
			}
		}
		ws.key = key
		workPool.Put(ws)
	})

	// --- Stage 2: significance filter. ---
	// At full sample size k the threshold is MinGenerated; with fewer
	// available targets it scales proportionally (never below 1).
	minGen := in.cfg.MinGenerated
	if sampled < in.k {
		minGen = max(1, int(math.Ceil(float64(in.cfg.MinGenerated)*float64(sampled)/float64(in.k))))
	}
	// Generations are first counted per hash. Distinct keys may share a
	// hash, so that count only bounds a function's own from above: the few
	// functions it lets through are then counted exactly, by key, in task
	// order — the exemplar of a function is the one its first sampled
	// target induced, independent of task scheduling.
	total := 0
	for i := range tasks {
		total += len(tasks[i].funcs)
	}
	byHash := make(map[uint64]int32, total)
	for i := range tasks {
		for _, ind := range tasks[i].funcs {
			byHash[ind.hash] += tasks[i].n
		}
	}
	var cands []ranked
	var key []byte
	ids := make(map[string]int)
	for i := range tasks {
		for _, ind := range tasks[i].funcs {
			if int(byHash[ind.hash]) < minGen {
				continue
			}
			key = metafunc.AppendKey(key[:0], ind.f)
			id, ok := ids[string(key)]
			if !ok {
				id = len(cands)
				cands = append(cands, ranked{Candidate: Candidate{Func: ind.f}, key: string(key), params: ind.f.Params()})
				ids[cands[id].key] = id
			}
			cands[id].Generated += int(tasks[i].n)
		}
	}
	for i := range tasks {
		clear(tasks[i].funcs) // the pooled scratch keeps the buffers, not the functions
	}
	cands = slices.DeleteFunc(cands, func(c ranked) bool { return c.Generated < minGen })
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(a, b ranked) int {
		if a.Generated != b.Generated {
			return cmp.Compare(b.Generated, a.Generated)
		}
		return cmp.Compare(a.key, b.key)
	})
	if len(cands) > in.cfg.MaxRanked {
		cands = cands[:in.cfg.MaxRanked]
	}

	// --- Stage 3: rank by estimated histogram overlap. ---
	in.rankByOverlap(sc, r, attr, cands, rng)
	slices.SortFunc(cands, func(a, b ranked) int {
		if a.Score != b.Score {
			return cmp.Compare(b.Score, a.Score)
		}
		// Prefer the cheaper function, then a stable key order.
		if a.params != b.params {
			return cmp.Compare(a.params, b.params)
		}
		return cmp.Compare(a.key, b.key)
	})
	if top > 0 && len(cands) > top {
		cands = cands[:top]
	}
	out := make([]Candidate, len(cands))
	for i := range cands {
		out[i] = cands[i].Candidate
	}
	return out
}

// rankByOverlap fills Overlap and Score by evaluating every candidate on
// the blocks of a Cochran-sized sample of source records (Section 4.4.3):
// within each sampled block, a candidate's value histogram over the block's
// source values is intersected with the block's target value histogram.
//
// Histograms are bars over call-local value ids, built once for all
// candidates. A candidate output that is not a value of a sampled block —
// never interned, interned by a refinement after the snapshots (code ≥
// Base), or simply absent from the sample — cannot equal any sampled target
// value, so it is skipped via a read-only dictionary probe: ranking never
// grows the dictionaries.
func (in *Inducer) rankByOverlap(sc *scratch, r *blocking.Result, attr int, cands []ranked, rng *rand.Rand) {
	coded := r.Coded()
	dict, base := coded.Dicts[attr], coded.Base[attr]
	vals := dict.Snapshot()
	srcCodes, tgtCodes := coded.Src[attr], coded.Tgt[attr]
	mixed := r.MixedBlocks()
	sources := sc.sources // one entry per source record, its block
	for bi, b := range mixed {
		for range b.Src {
			sources = append(sources, int32(bi))
		}
	}
	sc.sources = sources
	if len(sources) > in.kPrime {
		rng.Shuffle(len(sources), func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		sources = sources[:in.kPrime]
	}
	// Shared per-block histograms of the sampled blocks, in first-appearance
	// order, over local ids handed out in first-appearance order too.
	sc.blocks.begin(len(mixed))
	sc.codes.begin(int(base))
	sc.spans = sc.spans[:0]
	bars := func(recs, codes []int32) {
		lo := len(sc.runs)
		for _, rec := range recs {
			l, fresh := sc.codes.id(codes[rec])
			if fresh {
				sc.local, sc.pos = append(sc.local, codes[rec]), append(sc.pos, 0)
			}
			if sc.pos[l] == 0 {
				sc.runs = append(sc.runs, run{id: l})
				sc.pos[l] = int32(len(sc.runs))
			}
			sc.runs[sc.pos[l]-1].n++
		}
		for _, bar := range sc.runs[lo:] {
			sc.pos[bar.id] = 0
		}
	}
	for _, bi := range sources {
		if _, fresh := sc.blocks.id(bi); fresh {
			sp := span{lo: int32(len(sc.runs))}
			bars(mixed[bi].Src, srcCodes)
			sp.mid = int32(len(sc.runs))
			bars(mixed[bi].Tgt, tgtCodes)
			sp.hi = int32(len(sc.runs))
			sc.spans = append(sc.spans, sp)
		}
	}
	// Candidates are scored independently (overlap sums are commutative over
	// blocks), so the ranking stage parallelises per candidate.
	runs, spans, local, ids := sc.runs, sc.spans, sc.local, &sc.codes
	in.run(len(cands), func(i int) {
		ws := workPool.Get().(*workScratch)
		ws.reset(len(local))
		f := cands[i].Func
		overlap, touched := 0, ws.touched[:0]
		for _, sp := range spans {
			for _, bar := range runs[sp.lo:sp.mid] {
				out := ws.applied[bar.id]
				if out == 0 {
					out = -1
					if o, found := dict.Lookup(f.Apply(vals[local[bar.id]])); found && o < base {
						if l := ids.lookup(o); l >= 0 {
							out = l + 1
						}
					}
					ws.applied[bar.id] = out
				}
				if out > 0 {
					if ws.count[out-1] == 0 {
						touched = append(touched, out-1)
					}
					ws.count[out-1] += bar.n
				}
			}
			for _, bar := range runs[sp.mid:sp.hi] {
				overlap += int(min(bar.n, ws.count[bar.id]))
			}
			for _, l := range touched {
				ws.count[l] = 0
			}
			touched = touched[:0]
		}
		ws.touched = touched
		workPool.Put(ws)
		cands[i].Overlap = overlap
		cands[i].Score = overlap - cands[i].params
	})
}
