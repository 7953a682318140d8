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
// one New call, and is safe for concurrent Refines).
package blocking

import (
	"context"
	"sync"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// Block is one ϕ(κ): the source and target records sharing blocking index
// κ. κ itself is implicit — refinement groups records by interned
// value-code tuples, so a block is identified by (parent block, split
// code) without materialising the key. Render κ for debugging by reading
// any member record's decided-attribute values through the instance.
type Block struct {
	Src []int32 // source record indices
	Tgt []int32 // target record indices
}

// Mixed reports whether the block has records on both sides; only mixed
// blocks can contribute alignment examples.
func (b *Block) Mixed() bool { return len(b.Src) > 0 && len(b.Tgt) > 0 }

// applyMemo caches, for one (attribute, function) pair, the output code of
// every raw input code of that attribute. It is immutable once built.
type applyMemo []int32

// applyCache shares applyMemos across every Result of one refinement tree:
// refining different sibling or cousin states with the same (attr, func)
// reuses the memo instead of re-applying the function value by value.
type applyCache struct {
	mu    sync.Mutex
	memos map[applyKey]applyMemo
}

type applyKey struct {
	attr int
	fn   string
}

// memo returns the (attr, f) memo, building it on first use. Building
// interns novel function outputs, so distinct outputs always get distinct
// codes and outputs equal to target values collide with them — exactly the
// grouping semantics of string comparison, at integer cost.
//
// Explicit value mappings are built transiently instead of cached: every
// greedy-map probe constructs a fresh alignment-specific *Mapping that is
// refined exactly once, so caching those memos (keyed by the mapping's full
// entry list) would only grow the cache for a ~0% hit rate.
func (c *applyCache) memo(co *delta.Coded, attr int, f metafunc.Func) applyMemo {
	if _, oneShot := f.(*metafunc.Mapping); oneShot {
		return buildMemo(co, attr, f)
	}
	key := applyKey{attr: attr, fn: f.Key()}
	c.mu.Lock()
	m, ok := c.memos[key]
	c.mu.Unlock()
	if ok {
		return m
	}
	built := buildMemo(co, attr, f)
	// Two goroutines may build concurrently; both results are identical
	// mappings (interning is idempotent), so either may win.
	c.mu.Lock()
	if m, ok = c.memos[key]; !ok {
		c.memos[key] = built
		m = built
	}
	c.mu.Unlock()
	return m
}

// buildMemo fills entries only for codes present in the pair's columns —
// the only codes a refinement can read — so per-memo apply/intern work is
// bounded by the pair's value set, not by how much a long-lived dictionary
// pool has accumulated.
func buildMemo(co *delta.Coded, attr int, f metafunc.Func) applyMemo {
	dict := co.Dicts[attr]
	built := make(applyMemo, co.Base[attr])
	if metafunc.IsIdentity(f) {
		for _, c := range co.Present[attr] {
			built[c] = c
		}
	} else {
		for _, c := range co.Present[attr] {
			built[c] = dict.Code(f.Apply(dict.Value(c)))
		}
	}
	return built
}

// Result is Φ_H plus the record→block maps needed for refinement and for
// locating the block of a sampled record.
//
// Results are refined lazily: Refine runs only a counting pass — enough to
// compute the surpluses that cost a search state — and defers building the
// block lists and record→block maps until an accessor actually needs them
// (force). The search discards the vast majority of candidate refinements
// on cost alone, so most Results never materialise.
type Result struct {
	inst       *delta.Instance
	coded      *delta.Coded
	cache      *applyCache
	blocks     []*Block
	srcBlockOf []int32
	tgtBlockOf []int32
	mixed      []*Block        // blocks with records on both sides (cached)
	tSur, sSur int             // c_t(H), c_s(H), computed at Refine time
	ctx        context.Context // nil = never cancelled
	lazy       *lazyRefine     // pending materialisation; nil once forced
}

// lazyRefine holds a deferred refinement. It lives behind a pointer so
// Result copies (WithContext) share the once.
type lazyRefine struct {
	once   sync.Once
	parent *Result
	attr   int
	fn     metafunc.Func
}

// New returns the blocking result of the all-undecided state: a single
// block holding every record.
func New(inst *delta.Instance) *Result {
	b := &Block{}
	b.Src = make([]int32, inst.Source.Len())
	for i := range b.Src {
		b.Src[i] = int32(i)
	}
	b.Tgt = make([]int32, inst.Target.Len())
	for i := range b.Tgt {
		b.Tgt[i] = int32(i)
	}
	r := &Result{
		inst:       inst,
		coded:      inst.Coded(),
		cache:      &applyCache{memos: make(map[applyKey]applyMemo)},
		blocks:     []*Block{b},
		srcBlockOf: make([]int32, inst.Source.Len()),
		tgtBlockOf: make([]int32, inst.Target.Len()),
	}
	if d := len(b.Tgt) - len(b.Src); d > 0 {
		r.tSur = d
	} else {
		r.sSur = -d
	}
	if b.Mixed() {
		r.mixed = r.blocks
	}
	return r
}

// WithWorkers returns its receiver: refinement is single-threaded (the
// partitioned grouper was slower than this one inside the daemon). The
// method remains only because the frozen bench/probes.go calls it for
// blocking.refine_w2_ms; the next benchmark PR removes both.
func (r *Result) WithWorkers(int) *Result { return r }

// WithContext returns a result whose refinements — and those of every
// result derived from it — observe ctx: Refine called after ctx is
// cancelled returns the receiver unchanged instead of splitting blocks, so
// a cancelled search never pays for another O(|S|+|T|) grouping pass.
// Callers above the search layer discard states refined under a cancelled
// context, so the stale blocking is never acted on. A nil ctx returns the
// receiver unchanged.
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
// Refine is safe to call concurrently on the same receiver; the resulting
// blocks are ordered deterministically (parent-block order, then first
// appearance in record order).
//
// The returned result is lazy: only the counting pass has run (enough for
// TargetSurplus and SourceSurplus), and the block lists materialise on
// first access.
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

// countRefine runs the counting-only half of a refinement: per parent
// block, count source and target records per split code and accumulate the
// block surpluses. It allocates nothing beyond pooled scratch.
func (r *Result) countRefine(attr int, f metafunc.Func) (tSur, sSur int) {
	memo := r.cache.memo(r.coded, attr, f)
	srcCodes, tgtCodes := r.coded.Src[attr], r.coded.Tgt[attr]
	sc := countPool.Get().(*countScratch)
	for _, b := range r.blocks {
		sc.tab.reset()
		cntS, cntT := sc.cntS[:0], sc.cntT[:0]
		for _, s := range b.Src {
			idx, ok := sc.tab.getOrInsert(memo[srcCodes[s]], int32(len(cntS)))
			if !ok {
				cntS = append(cntS, 0)
				cntT = append(cntT, 0)
			}
			cntS[idx]++
		}
		for _, t := range b.Tgt {
			idx, ok := sc.tab.getOrInsert(tgtCodes[t], int32(len(cntS)))
			if !ok {
				cntS = append(cntS, 0)
				cntT = append(cntT, 0)
			}
			cntT[idx]++
		}
		for i := range cntS {
			if d := int(cntT[i] - cntS[i]); d > 0 {
				tSur += d
			} else {
				sSur -= d
			}
		}
		sc.cntS, sc.cntT = cntS, cntT
	}
	countPool.Put(sc)
	return tSur, sSur
}

// force materialises a lazily refined result: the full grouping pass plus
// the block-list build. Safe for concurrent callers; no-op once done.
func (r *Result) force() {
	l := r.lazy
	if l == nil {
		return
	}
	l.once.Do(func() {
		p := l.parent
		g := p.newGrouper(l.attr, l.fn)
		for _, b := range p.blocks {
			g.group(b)
		}
		r.materialise(g.srcBlockOf, g.tgtBlockOf, g.cntS, g.cntT)
		// A forced result no longer needs its parent: release it, or every
		// state would keep its whole chain of materialised ancestors alive
		// (two record→block arrays and the block lists per level). Only
		// this body reads these fields, so the once orders the writes.
		l.parent, l.fn = nil, nil
		// r.lazy stays set: concurrent force callers synchronise on the
		// once, and accessors never read the materialised fields directly.
	})
}

// newGrouper prepares the grouping pass over the receiver's blocks.
func (r *Result) newGrouper(attr int, f metafunc.Func) *grouper {
	return &grouper{
		memo:       r.cache.memo(r.coded, attr, f),
		srcCodes:   r.coded.Src[attr],
		tgtCodes:   r.coded.Tgt[attr],
		srcBlockOf: make([]int32, len(r.srcBlockOf)),
		tgtBlockOf: make([]int32, len(r.tgtBlockOf)),
	}
}

// RefineAll returns the blocking result after additionally deciding each
// attrs[i] with fs[i]: exactly the forced chain
// r.Refine(attrs[0], fs[0]).Refine(attrs[1], fs[1])… — the same blocks in
// the same order, the same record→block maps and surpluses, and apply
// memos built in the same attribute order, so dictionary codes agree too.
// It gets there without the chain's intermediate block lists: each level
// is one grouping pass over two record→block arrays, keyed by (parent
// block, split code), and the blocks materialise once at the end. The
// receiver is unchanged; with no attributes, or once the context is
// cancelled, RefineAll returns the receiver, as Refine does.
func (r *Result) RefineAll(attrs []int, fs []metafunc.Func) *Result {
	if len(attrs) == 0 || r.cancelled() {
		return r
	}
	r.force()
	// Building a memo interns novel function outputs, so the chain's
	// attribute order fixes the codes; build them all up front in it.
	memos := make([]applyMemo, len(attrs))
	for i, a := range attrs {
		memos[i] = r.cache.memo(r.coded, a, fs[i])
	}
	srcOf := append([]int32(nil), r.srcBlockOf...)
	tgtOf := append([]int32(nil), r.tgtBlockOf...)
	// rank[id] is block id's position in chain order. Ids are handed out in
	// record order (sources, then targets), which within one parent block is
	// exactly the chain's first-appearance order; a stable counting sort by
	// the parent's rank then yields the chain's parent-block-first order.
	rank := make([]int32, len(r.blocks))
	for i := range rank {
		rank[i] = int32(i)
	}
	var (
		tab    pairTable
		parent []int32 // parent id per new block id
	)
	for i, a := range attrs {
		if r.cancelled() {
			return r
		}
		memo, srcCodes, tgtCodes := memos[i], r.coded.Src[a], r.coded.Tgt[a]
		tab.reset(len(rank))
		parent = parent[:0]
		for s, p := range srcOf {
			id, found := tab.getOrInsert(pairKey(p, memo[srcCodes[s]]), int32(len(parent)))
			if !found {
				parent = append(parent, p)
			}
			srcOf[s] = id
		}
		for t, p := range tgtOf {
			id, found := tab.getOrInsert(pairKey(p, tgtCodes[t]), int32(len(parent)))
			if !found {
				parent = append(parent, p)
			}
			tgtOf[t] = id
		}
		start := make([]int32, len(rank))
		for _, p := range parent {
			start[rank[p]]++
		}
		off := int32(0)
		for k, n := range start {
			start[k] = off
			off += n
		}
		next := make([]int32, len(parent))
		for id, p := range parent {
			next[id] = start[rank[p]]
			start[rank[p]]++
		}
		rank = next
	}
	cntS := make([]int32, len(rank))
	cntT := make([]int32, len(rank))
	for s, id := range srcOf {
		srcOf[s] = rank[id]
		cntS[rank[id]]++
	}
	for t, id := range tgtOf {
		tgtOf[t] = rank[id]
		cntT[rank[id]]++
	}
	nr := &Result{inst: r.inst, coded: r.coded, cache: r.cache, ctx: r.ctx}
	nr.materialise(srcOf, tgtOf, cntS, cntT)
	for i := range cntS {
		if d := int(cntT[i] - cntS[i]); d > 0 {
			nr.tSur += d
		} else {
			nr.sSur -= d
		}
	}
	return nr
}

// cancelled reports whether the result's context is done.
func (r *Result) cancelled() bool { return r.ctx != nil && r.ctx.Err() != nil }

// materialise builds the block lists from the record→block maps srcOf and
// tgtOf and the per-block record counts: exactly-sized member slices carved
// out of two shared backing arrays, filled in record order (so members are
// ascending, as every block's are), then the cached mixed-block list.
func (r *Result) materialise(srcOf, tgtOf, cntS, cntT []int32) {
	arena := make([]Block, len(cntS))
	blocks := make([]*Block, len(cntS))
	srcStore := make([]int32, 0, len(srcOf))
	tgtStore := make([]int32, 0, len(tgtOf))
	for i := range arena {
		off := len(srcStore)
		srcStore = srcStore[:off+int(cntS[i])]
		arena[i].Src = srcStore[off:off:len(srcStore)]
		off = len(tgtStore)
		tgtStore = tgtStore[:off+int(cntT[i])]
		arena[i].Tgt = tgtStore[off:off:len(tgtStore)]
		blocks[i] = &arena[i]
	}
	for s, b := range srcOf {
		nb := blocks[b]
		nb.Src = append(nb.Src, int32(s))
	}
	for t, b := range tgtOf {
		nb := blocks[b]
		nb.Tgt = append(nb.Tgt, int32(t))
	}
	r.blocks = blocks
	r.srcBlockOf = srcOf
	r.tgtBlockOf = tgtOf
	mixed := make([]*Block, 0, len(blocks)/2)
	for _, b := range blocks {
		if b.Mixed() {
			mixed = append(mixed, b)
		}
	}
	r.mixed = mixed
}

// grouper carries the state of Refine's grouping pass: the global sub-block
// tables plus the per-parent split map.
type grouper struct {
	memo               applyMemo
	srcCodes, tgtCodes []int32
	srcBlockOf         []int32
	tgtBlockOf         []int32
	cntS, cntT         []int32   // records per sub-block
	sub                codeTable // split code → sub-block index, per parent
}

// get returns the sub-block index of split code c within the current
// parent, assigning the next global index on first sight.
func (g *grouper) get(c int32) int32 {
	idx, found := g.sub.getOrInsert(c, int32(len(g.cntS)))
	if !found {
		g.cntS = append(g.cntS, 0)
		g.cntT = append(g.cntT, 0)
	}
	return idx
}

// group splits one parent block.
func (g *grouper) group(b *Block) {
	g.sub.reset()
	for _, s := range b.Src {
		idx := g.get(g.memo[g.srcCodes[s]])
		g.cntS[idx]++
		g.srcBlockOf[s] = idx
	}
	for _, t := range b.Tgt {
		idx := g.get(g.tgtCodes[t])
		g.cntT[idx]++
		g.tgtBlockOf[t] = idx
	}
}

// Instance returns the problem instance the result was built over.
func (r *Result) Instance() *delta.Instance { return r.inst }

// Coded returns the instance's interned columnar view (shared, not copied).
func (r *Result) Coded() *delta.Coded { return r.coded }

// Blocks returns all blocks; callers must not mutate them.
func (r *Result) Blocks() []*Block {
	r.force()
	return r.blocks
}

// NumBlocks returns |Ξ_H|.
func (r *Result) NumBlocks() int {
	r.force()
	return len(r.blocks)
}

// MixedBlocks returns the blocks containing both source and target records;
// callers must not mutate the shared slice.
func (r *Result) MixedBlocks() []*Block {
	r.force()
	return r.mixed
}

// BlockOfSource returns the block containing source record s.
func (r *Result) BlockOfSource(s int) *Block {
	r.force()
	return r.blocks[r.srcBlockOf[s]]
}

// BlockOfTarget returns the block containing target record t.
func (r *Result) BlockOfTarget(t int) *Block {
	r.force()
	return r.blocks[r.tgtBlockOf[t]]
}

// TargetSurplus returns c_t(H) = Σ_{|ϕT(κ)| > |ϕS(κ)|} |ϕT(κ)| − |ϕS(κ)|,
// the lower bound on |T^{E+}| (Section 4.5). Computed during the counting
// pass, so it never forces materialisation.
func (r *Result) TargetSurplus() int { return r.tSur }

// SourceSurplus returns c_s(H), the lower bound on |S^{E−}|.
func (r *Result) SourceSurplus() int { return r.sSur }

// Indeterminacy estimates how undetermined attribute attr still is: the
// maximum number of distinct source values of attr over all mixed blocks —
// an upper bound for the number of source values that must be considered as
// the origin of a target value (Section 4.3 "Extending Search States").
func (r *Result) Indeterminacy(attr int) int {
	return r.Indeterminacies([]int{attr})[0]
}

// Indeterminacies returns Indeterminacy for each of attrs, sharing one
// distinct-counting scratch over the whole list.
func (r *Result) Indeterminacies(attrs []int) []int {
	r.force()
	size := int32(0)
	for _, attr := range attrs {
		size = max(size, r.coded.Base[attr])
	}
	// Raw source codes are dense in [0, Base[attr]), so distinct counting
	// is an epoch-marked array walk instead of hashing; the epoch keeps
	// counting across attributes, so the array is never cleared.
	seen := make([]int32, size)
	epoch := int32(0)
	out := make([]int, len(attrs))
	for i, attr := range attrs {
		srcCodes := r.coded.Src[attr]
		most := 0
		for _, b := range r.mixed {
			if len(b.Src) <= most {
				continue // cannot hold more distinct values than records
			}
			epoch++
			n := 0
			for _, s := range b.Src {
				if c := srcCodes[s]; seen[c] != epoch {
					seen[c] = epoch
					n++
				}
			}
			most = max(most, n)
		}
		out[i] = most
	}
	return out
}
