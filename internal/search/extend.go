package search

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"affidavit/internal/align"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/spill"
)

// extensions implements the Extensions(H) procedure of Algorithm 1:
//
//  1. order undecided attributes by indeterminacy;
//  2. poll the β most determined ones, sample one random alignment R
//     respecting Φ_H, and for each polled attribute compare its induced
//     candidates against the greedy-map probe Hд built from R;
//  3. keep induced extensions cheaper than Hд; an attribute with none is
//     remembered as a ⊡ (map-pending) attribute;
//  4. while nothing was kept, poll the next most determined attribute;
//  5. if every undecided attribute prefers a map, finalise H by assigning
//     greedy value mappings one attribute at a time, re-sampling the
//     alignment after each so later maps respect earlier ones.
//
// Probes within one wave are independent: each draws from its own rng
// (derived deterministically from the seed, the poll index and the
// attribute) and is evaluated on the worker pool, then merged in attribute
// order. The sequential and parallel engines therefore walk identical
// search trees for equal seeds.
func (e *engine) extensions(h *State) []*State {
	ordered := h.undecided()
	if len(ordered) == 0 {
		return nil
	}
	batch := e.opts.Beta
	if batch > len(ordered) {
		batch = len(ordered)
	}
	r := e.alignSc.Random(h.blocks, e.rng)

	var ext []*State
	next := batch
	queue := append([]int(nil), ordered[:batch]...)
	for len(ext) == 0 && len(queue) > 0 {
		if e.done() {
			// Cancelled mid-expansion: drop the wave; the poll loop notices
			// on its next iteration and salvages the best polled state.
			return nil
		}
		probes := make([]probeResult, len(queue))
		e.runAll(len(queue), func(i int) {
			probes[i] = e.probe(h, queue[i], r)
		})
		for _, pr := range probes {
			e.stats.StatesGenerated += pr.generated
			if e.opts.Tracer != nil && pr.hg != nil {
				e.opts.Tracer.Probe(h, pr.attr, pr.hg, pr.kept)
			}
			ext = append(ext, pr.kept...)
		}
		queue = queue[:0]
		if len(ext) == 0 && next < len(ordered) {
			queue = append(queue, ordered[next])
			next++
		}
	}
	if e.done() {
		return nil
	}
	if len(ext) == 0 {
		// Every undecided attribute is ⊡: finalise with greedy maps.
		return []*State{e.finalize(h)}
	}
	return ext
}

// probeResult is one attribute probe's outcome, merged deterministically by
// the caller.
type probeResult struct {
	attr      int
	hg        *State   // the greedy-map probe Hд
	kept      []*State // induced extensions cheaper than Hд
	generated int      // candidate states costed
}

// probe compares the β best induced candidates for one attribute against
// the greedy-map probe. It is safe to run concurrently with other probes of
// the same parent state. Each probe — i.e. each worker task — checks the
// run's context on entry and returns an empty result once cancelled; the
// blocking refinements it triggers observe the context as well.
func (e *engine) probe(h *State, attr int, r []align.Pair) probeResult {
	if e.done() {
		return probeResult{attr: attr}
	}
	g := align.GreedyMap(h.inst, r, attr)
	hg := h.extend(attr, g, e.cm)
	cands := e.ind.Candidates(h.blocks, attr, e.opts.Beta, e.probeRng(attr))
	pr := probeResult{attr: attr, hg: hg, generated: len(cands)}
	// The candidate refinements are independent of each other; evaluate
	// them on the pool too, then keep survivors in rank order.
	children := make([]*State, len(cands))
	e.runAll(len(cands), func(i int) {
		children[i] = h.extend(attr, cands[i].Func, e.cm)
	})
	for _, hf := range children {
		if hf.cost < hg.cost {
			pr.kept = append(pr.kept, hf)
		}
	}
	return pr
}

// probeRng derives the deterministic rng for one probe of the current
// expansion. Keyed by (Seed, poll index, attribute), so probes are
// independent of evaluation order — the root of seq/parallel equivalence.
// The source is a splitmix64 stream: seeding is a single addition, unlike
// the ~2.5 KB state initialisation of the default math/rand source.
func (e *engine) probeRng(attr int) *rand.Rand {
	z := uint64(e.opts.Seed) ^ 0x9e3779b97f4a7c15*uint64(e.stats.Polls+1) ^
		0xbf58476d1ce4e5b9*uint64(attr+1)
	return rand.New(&splitmix{state: z})
}

// splitmix is the splitmix64 generator as a rand.Source64.
type splitmix struct{ state uint64 }

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix) Seed(seed int64) { s.state = uint64(seed) }

// finalize resolves all remaining ⊡ attributes of h with greedy value
// mappings, most determined attribute first, re-sampling the random
// alignment after each assignment (Section 4.3). It always runs on the
// polling goroutine and draws from the engine's main rng.
func (e *engine) finalize(h *State) *State {
	cur := h
	for !cur.IsEnd() {
		attr := cur.undecided()[0]
		r := e.alignSc.Random(cur.blocks, e.rng)
		g := align.GreedyMap(cur.inst, r, attr)
		cur = cur.extend(attr, g, e.cm)
		e.stats.StatesGenerated++
	}
	if e.opts.Tracer != nil {
		e.opts.Tracer.Finalized(h, cur)
	}
	return cur
}

// engine bundles the per-run mutable pieces so the package-level API stays
// stateless. rng and stats are only ever touched from the polling
// goroutine; probes use derived rngs and report their work via
// probeResult.
type engine struct {
	ctx   context.Context
	opts  Options
	cm    delta.CostModel
	rng   *rand.Rand
	stats *Stats
	sem   chan struct{} // worker-pool slots; nil = sequential engine

	// ind induces the run's function candidates: opts.Induce with its sample
	// sizes resolved once and runAll as the Runner.
	ind *induce.Inducer

	// alignSc is the run's reusable alignment-sampling scratch. Touched only
	// from the polling goroutine (extensions and finalize); each returned
	// alignment is consumed by one probe wave before the next sample.
	alignSc align.Scratch

	// Per-run spill accounting (nil without a budget): the overlap index
	// and end-state matching report here, and the totals surface as Stats
	// fields and KindSpill events.
	matchSpill   *spill.Stats
	overlapSpill *spill.Stats
}

// done reports whether the run's context was cancelled. Checked once per
// poll, on every probe entry, and by every blocking refinement.
func (e *engine) done() bool { return e.ctx.Err() != nil }

// runAll runs n independent tasks, evaluating up to Workers of them
// concurrently. The calling goroutine participates: when every pool slot is
// busy the whole batch runs inline, which also makes nested runAll calls
// (probe → candidate refinements → induction) deadlock-free. Tasks must
// write their results by index; runAll returns when all tasks finished.
//
// Dispatch is batched: the free pool slots are claimed once per call and
// each claimed helper pulls task indices from a shared atomic counter, so
// the semaphore handoff costs at most Workers−1 channel operations per
// batch instead of one per task.
func (e *engine) runAll(n int, task func(int)) {
	if e.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	helpers := 0
claim:
	for helpers < n-1 {
		select {
		case e.sem <- struct{}{}:
			helpers++
		default:
			break claim
		}
	}
	if helpers == 0 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer func() {
				<-e.sem
				wg.Done()
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		task(i)
	}
	wg.Wait()
}
