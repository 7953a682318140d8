package search

import (
	"context"
	"math/rand"

	"affidavit/internal/align"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/obs"
)

// extensions implements the Extensions(H) procedure of Algorithm 1:
//
//  1. rank the undecided attributes by indeterminacy — only the β most
//     determined ones, unless the first wave keeps nothing;
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
// attribute), and their results merge in attribute order.
func (e *engine) extensions(h *State) []*State {
	undecided := h.undecided()
	if len(undecided) == 0 {
		return nil
	}
	// Only the first wave's β attributes are ranked up front; the full
	// order is needed only when that wave keeps nothing.
	batch := min(e.opts.Beta, len(undecided))
	queue := h.blocks.LeastIndeterminate(undecided, batch)
	r := e.alignSc.Random(h.blocks, e.rng)

	var ext []*State
	var ordered []int // every undecided attribute, ranked on first need
	next := batch
	for len(ext) == 0 && len(queue) > 0 {
		if e.done() {
			// Cancelled mid-expansion: drop the wave; the poll loop notices
			// on its next iteration and salvages the best polled state.
			return nil
		}
		for _, attr := range queue {
			ext = e.probe(ext, h, attr, r)
		}
		queue = queue[:0]
		if len(ext) == 0 && next < len(undecided) {
			if ordered == nil {
				ordered = h.blocks.LeastIndeterminate(undecided, len(undecided))
			}
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

// probe compares the β best induced candidates for one attribute against
// the greedy-map probe Hд and appends those cheaper than Hд to ext, in rank
// order. Each probe checks the run's context on entry and adds nothing once
// cancelled; the blocking refinements it triggers observe the context as
// well.
func (e *engine) probe(ext []*State, h *State, attr int, r []align.Pair) []*State {
	if e.done() {
		return ext
	}
	g := e.alignSc.GreedyMap(h.inst, r, attr)
	hg := h.extend(attr, g, e.cm)
	cands := e.ind.Candidates(h.blocks, attr, e.opts.Beta, e.probeRng(attr))
	e.stats.StatesGenerated += len(cands)
	for _, c := range cands {
		if hf := h.extend(attr, c.Func, e.cm); hf.cost < hg.cost {
			ext = append(ext, hf)
		}
	}
	return ext
}

// probeRng derives the deterministic rng for one probe of the current
// expansion. Keyed by (Seed, poll index, attribute), so a probe's draws do
// not depend on which probes ran before it in the wave. The source is a
// splitmix64 stream: seeding is a single addition, unlike the ~2.5 KB
// state initialisation of the default math/rand source.
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
// alignment after each assignment (Section 4.3). It draws from the
// engine's main rng.
func (e *engine) finalize(h *State) *State {
	cur := h
	for !cur.IsEnd() {
		attr := cur.blocks.LeastIndeterminate(cur.undecided(), 1)[0]
		r := e.alignSc.Random(cur.blocks, e.rng)
		g := e.alignSc.GreedyMap(cur.inst, r, attr)
		cur = cur.extend(attr, g, e.cm)
		e.stats.StatesGenerated++
	}
	return cur
}

// engine bundles the per-run mutable pieces so the package-level API stays
// stateless. A run is single-threaded; probes draw from derived rngs, not
// from rng.
type engine struct {
	ctx   context.Context
	sink  obs.Sink // the run's event sink, from ctx; nil = unobserved
	opts  Options
	cm    delta.CostModel
	rng   *rand.Rand
	stats *Stats

	// ind induces the run's function candidates: opts.Induce with its sample
	// sizes resolved once.
	ind *induce.Inducer

	// alignSc is the run's alignment-sampling and greedy-map scratch
	// (extensions and finalize); each returned alignment is consumed by one
	// probe wave before the next sample.
	alignSc align.Scratch
}

// done reports whether the run's context was cancelled. Checked once per
// poll, on every probe entry, and by every blocking refinement.
func (e *engine) done() bool { return e.ctx.Err() != nil }
