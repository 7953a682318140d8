// Package blocking implements the blocking index ξ_H and blocking result
// Φ_H of Definitions 4.3–4.4: under a search state, source and target
// records are grouped by their projection onto the decided attributes, with
// the decided attribute functions applied to source values during
// projection. Results refine incrementally — deciding one more attribute
// splits each existing block — which is how the search extends states
// without recomputing blocking from scratch.
//
// The implementation runs on the instance's interned columnar view: blocks
// are keyed by dense value-code tuples, and each attribute function is
// evaluated at most once per distinct value of its attribute for the whole
// refinement tree (the apply memo is shared across all Results derived from
// one New call). A Result keeps only its mixed blocks — the only ones any
// caller reads, since a pure block only ever splits into pure blocks — and
// the record counts of the pure ones. One run, one goroutine: a refinement
// tree and its scratch belong to the search run that built it, and no two
// goroutines ever touch one tree.
package blocking

import (
	"context"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// applyCache is what every Result of one refinement tree shares: the apply
// memos (delta.Coded.ApplyMemo), so refining different sibling or cousin
// states with the same (attr, func) reuses the memo instead of re-applying
// the function value by value, and the tree's split scratch. The tree
// belongs to one run on one goroutine, so neither needs a lock.
type applyCache struct {
	memos map[applyKey][]int32
	sc    splitScratch
}

type applyKey struct {
	attr int
	fn   string
}

// memo returns the (attr, f) memo, building it on first use.
//
// Explicit value mappings are built transiently instead of cached: every
// greedy-map probe constructs a fresh alignment-specific *Mapping that is
// refined exactly once, so caching those memos (keyed by the mapping's full
// entry list) would only grow the cache for a ~0% hit rate. A mapping over
// the attribute's own dictionary is filled from its code pairs, without
// applying anything.
func (c *applyCache) memo(co *delta.Coded, attr int, f metafunc.Func) []int32 {
	if _, oneShot := f.(*metafunc.Mapping); oneShot {
		return co.ApplyMemo(attr, f)
	}
	key := applyKey{attr: attr, fn: f.Key()}
	m, ok := c.memos[key]
	if !ok {
		m = co.ApplyMemo(attr, f)
		c.memos[key] = m
	}
	return m
}

// Result is Φ_H as its readers see it: the mixed blocks in order, the
// record counts of the pure (source-only and target-only) blocks, and the
// surpluses that cost a search state.
//
// Results are refined lazily: Refine runs only a counting pass — enough to
// compute the surpluses — and defers splitting the blocks until an
// accessor needs them (force). The search discards the vast majority of
// candidate refinements on cost alone, so most Results never materialise.
type Result struct {
	inst         *delta.Instance
	coded        *delta.Coded
	cache        *applyCache
	lv           level           // the blocks with records on both sides, in block order
	tSur, sSur   int             // c_t(H), c_s(H), computed at Refine time
	pureS, pureT int             // records in source-only / target-only blocks
	ctx          context.Context // nil = never cancelled
	lazy         *lazyRefine     // pending split; nil once forced
}

// lazyRefine is a deferred refinement: the parent to split and how.
type lazyRefine struct {
	parent *Result
	attr   int
	fn     metafunc.Func
}

// New returns the blocking result of the all-undecided state: a single
// block holding every record.
func New(inst *delta.Instance) *Result {
	r := &Result{
		inst:  inst,
		coded: inst.Coded(),
		cache: &applyCache{memos: make(map[applyKey][]int32)},
	}
	nS, nT := inst.Source.Len(), inst.Target.Len()
	if nS > 0 && nT > 0 {
		r.lv = level{src: make([]int32, nS), tgt: make([]int32, nT), srcEnd: []int32{int32(nS)}, tgtEnd: []int32{int32(nT)}}
		for i := range r.lv.src {
			r.lv.src[i] = int32(i)
		}
		for i := range r.lv.tgt {
			r.lv.tgt[i] = int32(i)
		}
	} else {
		r.pureS, r.pureT = nS, nT
	}
	r.tSur, r.sSur = r.surpluses()
	return r
}

// WithWorkers returns its receiver. It is a shim: refinement is
// single-threaded, and the method remains only because the frozen
// bench/probes.go calls it for blocking.refine_w2_ms; the next benchmark
// PR removes both.
func (r *Result) WithWorkers(int) *Result { return r }

// WithContext returns a result whose refinements — and those of every
// result derived from it — observe ctx: Refine called after ctx is
// cancelled returns the receiver unchanged instead of splitting blocks, so
// a cancelled search never pays for another grouping pass. Callers above
// the search layer discard states refined under a cancelled context, so
// the stale blocking is never acted on. A nil ctx returns the receiver
// unchanged.
func (r *Result) WithContext(ctx context.Context) *Result {
	if ctx == nil {
		return r
	}
	r.force()
	nr := *r
	nr.ctx = ctx
	return &nr
}

// Refine returns the blocking result after additionally deciding attribute
// attr with function f: each block splits by f(source value) on the source
// side and the raw value on the target side. The receiver is unchanged.
// The resulting blocks are ordered deterministically: parent-block order,
// then first appearance in record order, sources before targets.
//
// The returned result is lazy: only the counting pass has run (enough for
// TargetSurplus and SourceSurplus), and the blocks split on first access.
func (r *Result) Refine(attr int, f metafunc.Func) *Result {
	if r.cancelled() {
		// Cancelled: skip the grouping pass entirely. The receiver is a
		// valid (coarser) result; the search layer is about to abandon any
		// state built from it.
		return r
	}
	r.force()
	nr := &Result{
		inst:  r.inst,
		coded: r.coded,
		cache: r.cache,
		ctx:   r.ctx,
		lazy:  &lazyRefine{parent: r, attr: attr, fn: f},
	}
	nr.tSur, nr.sSur = r.countRefine(attr, f)
	return nr
}

// countRefine runs the counting-only half of a refinement. A source-only
// or target-only block splits only into blocks of its own side, so it adds
// exactly its size to the surplus whatever f is: the pure counts enter as
// constants and only the mixed parent blocks are walked, adding the
// surplus of each split code. It allocates nothing beyond the tree's
// scratch.
func (r *Result) countRefine(attr int, f metafunc.Func) (tSur, sSur int) {
	memo := r.cache.memo(r.coded, attr, f)
	srcCodes, tgtCodes := r.coded.Src[attr], r.coded.Tgt[attr]
	tSur, sSur = r.pureT, r.pureS
	sc := &r.cache.sc
	// Split codes are memo outputs (interned before the memo was returned)
	// and raw target codes, so the dictionary's size bounds them all.
	sc.reset(r.coded.Dicts[attr].Len())
	for i := range r.lv.srcEnd {
		bs, bt := r.lv.block(i)
		t, s := sc.countDense(bs, bt, memo, srcCodes, tgtCodes)
		tSur += t
		sSur += s
	}
	return tSur, sSur
}

// force materialises a lazily refined result by splitting its parent's
// mixed blocks; a no-op once done. A forced result no longer needs its
// parent and lets go of it, or every state would keep its whole chain of
// materialised ancestors alive. The check inlines into every accessor; the
// split does not.
func (r *Result) force() {
	if r.lazy != nil {
		r.materialise()
	}
}

// materialise is force's split.
func (r *Result) materialise() {
	l := r.lazy
	r.lazy = nil
	p := l.parent
	out := &r.cache.sc.bufs[0]
	ps, pt := p.split(&p.lv, l.attr, l.fn, out)
	r.pureS, r.pureT = p.pureS+ps, p.pureT+pt
	r.lv = out.clone()
}

// split splits the blocks of in — the receiver's or a level below it — by
// (attr, f) into out and returns the records of the pure children.
func (r *Result) split(in *level, attr int, f metafunc.Func, out *level) (pureS, pureT int) {
	memo := r.cache.memo(r.coded, attr, f)
	sc := &r.cache.sc
	sc.reset(r.coded.Dicts[attr].Len())
	return sc.split(in, memo, r.coded.Src[attr], r.coded.Tgt[attr], out)
}

// RefineAll returns the blocking result after additionally deciding each
// attrs[i] with fs[i]: exactly the forced chain
// r.Refine(attrs[0], fs[0]).Refine(attrs[1], fs[1])… — the same mixed
// blocks in the same order, the same pure counts and surpluses, and apply
// memos built in the same attribute order, so dictionary codes agree too.
// It skips the chain's counting passes and its intermediate results: each
// level splits the previous level's mixed blocks into one of two reused
// flat layouts, and only the last level is kept. The receiver is
// unchanged; with no attributes, or once the context is cancelled,
// RefineAll returns the receiver, as Refine does.
func (r *Result) RefineAll(attrs []int, fs []metafunc.Func) *Result {
	if len(attrs) == 0 || r.cancelled() {
		return r
	}
	r.force()
	nr := &Result{inst: r.inst, coded: r.coded, cache: r.cache, ctx: r.ctx, pureS: r.pureS, pureT: r.pureT}
	bufs := &r.cache.sc.bufs
	in := &r.lv
	for i, a := range attrs {
		if r.cancelled() {
			return r
		}
		out := &bufs[i%2]
		ps, pt := r.split(in, a, fs[i], out)
		nr.pureS, nr.pureT = nr.pureS+ps, nr.pureT+pt
		in = out
	}
	nr.lv = in.clone()
	nr.tSur, nr.sSur = nr.surpluses()
	return nr
}

// surpluses derives c_t and c_s from a forced result's blocks: a pure
// block's records are all surplus on their side.
func (r *Result) surpluses() (tSur, sSur int) {
	tSur, sSur = r.pureT, r.pureS
	for i := range r.lv.srcEnd {
		bs, bt := r.lv.block(i)
		if d := len(bt) - len(bs); d > 0 {
			tSur += d
		} else {
			sSur -= d
		}
	}
	return tSur, sSur
}

// cancelled reports whether the result's context is done.
func (r *Result) cancelled() bool { return r.ctx != nil && r.ctx.Err() != nil }

// Memos returns the conversion's apply memos of the end-state tuple fs
// (delta.BuildWithMemos): the tree's memo of each function, nil for an
// identity one. A function already refined in this tree is not applied
// again; a mapping's memo is rebuilt from its code pairs.
func (r *Result) Memos(fs []metafunc.Func) [][]int32 {
	memos := make([][]int32, len(fs))
	for a, f := range fs {
		if !metafunc.IsIdentity(f) {
			memos[a] = r.cache.memo(r.coded, a, f)
		}
	}
	return memos
}

// Instance returns the problem instance the result was built over.
func (r *Result) Instance() *delta.Instance { return r.inst }

// Coded returns the instance's interned columnar view (shared, not copied).
func (r *Result) Coded() *delta.Coded { return r.coded }

// Blocks returns NumMixed. It is a shim: the method remains only because
// the frozen bench/probes.go calls it to force a refinement; the next
// benchmark PR removes both.
func (r *Result) Blocks() int { return r.NumMixed() }

// NumMixed returns the number of blocks containing both source and target
// records, forcing a lazy result.
func (r *Result) NumMixed() int {
	r.force()
	return len(r.lv.srcEnd)
}

// Mixed returns the source and target records of mixed block i, in block
// order, forcing a lazy result. The slices share the result's arrays —
// callers must not write through them — and have no capacity past the
// block, so an append copies instead of overwriting block i+1.
func (r *Result) Mixed(i int) (src, tgt []int32) {
	r.force()
	return r.lv.block(i)
}

// TargetSurplus returns c_t(H) = Σ_{|ϕT(κ)| > |ϕS(κ)|} |ϕT(κ)| − |ϕS(κ)|,
// the lower bound on |T^{E+}| (Section 4.5). Computed during the counting
// pass, so it never forces materialisation.
func (r *Result) TargetSurplus() int { return r.tSur }

// SourceSurplus returns c_s(H), the lower bound on |S^{E−}|.
func (r *Result) SourceSurplus() int { return r.sSur }

// LeastIndeterminate returns the k attributes of attrs that are least
// indeterminate, most determined first; ties break towards the lower
// attribute index. An attribute's indeterminacy is the maximum number of
// distinct source values it takes in one mixed block — an upper bound for
// the number of source values that must be considered as the origin of a
// target value (Section 4.3 "Extending Search States"). k ≥ len(attrs)
// orders every attribute.
//
// Only the ranking is exact, not the counts behind it: the mixed blocks
// are walked in decreasing source size, a walk stops once no remaining
// block holds more records than the running maximum, and an attribute is
// abandoned as soon as its running maximum can no longer beat the k-th
// best so far.
func (r *Result) LeastIndeterminate(attrs []int, k int) []int {
	r.force()
	k = min(k, len(attrs))
	if k <= 0 {
		return nil
	}
	sc := &r.cache.sc
	size := int32(0)
	for _, attr := range attrs {
		size = max(size, r.coded.Base[attr])
	}
	sc.reset(int(size))
	order := sc.bySourceSize(&r.lv)
	type ranked struct{ ind, attr int }
	// beats reports whether (n, attr) sorts before e.
	beats := func(n, attr int, e ranked) bool { return n < e.ind || n == e.ind && attr < e.attr }
	best := make([]ranked, 0, k+1)
	for _, attr := range attrs {
		srcCodes := r.coded.Src[attr]
		most, lost := 0, false
		for _, bi := range order {
			bs, _ := r.lv.block(int(bi))
			if len(bs) <= most {
				break // no later block holds more records than the maximum
			}
			// A slot is live while its epoch matches: distinct counting with
			// no clear between blocks.
			epoch := sc.next()
			n := 0
			for _, s := range bs {
				if p := &sc.slots[srcCodes[s]]; p.epoch != epoch {
					p.epoch = epoch
					n++
				}
			}
			most = max(most, n)
			if len(best) == k && !beats(most, attr, best[k-1]) {
				lost = true
				break
			}
		}
		if lost {
			continue
		}
		i := len(best)
		for i > 0 && beats(most, attr, best[i-1]) {
			i--
		}
		best = append(best, ranked{})
		copy(best[i+1:], best[i:])
		best[i] = ranked{ind: most, attr: attr}
		best = best[:min(len(best), k)]
	}
	out := make([]int, len(best))
	for i, e := range best {
		out[i] = e.attr
	}
	return out
}
