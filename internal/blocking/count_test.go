package blocking_test

import (
	"fmt"
	"math/rand"
	"testing"

	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// recount derives the surpluses and pure-block record counts of a forced
// result from its blocks.
func recount(r *blocking.Result) (tSur, sSur, pureS, pureT int) {
	for _, b := range r.Blocks() {
		if d := len(b.Tgt) - len(b.Src); d > 0 {
			tSur += d
		} else {
			sSur -= d
		}
		if !b.Mixed() {
			pureS += len(b.Src)
			pureT += len(b.Tgt)
		}
	}
	return tSur, sSur, pureS, pureT
}

// randomRefinement picks a function for attribute a: the identity, one
// induced from a random source/target value pair, a coded greedy map from
// an alignment that respects r, or a string-built mapping.
func randomRefinement(rng *rand.Rand, inst *delta.Instance, r *blocking.Result, a int) metafunc.Func {
	switch rng.Intn(4) {
	case 0:
		if inst.Source.Len() > 0 && inst.Target.Len() > 0 {
			in := inst.Source.Value(rng.Intn(inst.Source.Len()), a)
			out := inst.Target.Value(rng.Intn(inst.Target.Len()), a)
			if fs := metafunc.InduceAll(metafunc.DefaultMetas(), in, out); len(fs) > 0 {
				return fs[rng.Intn(len(fs))]
			}
		}
	case 1:
		return align.GreedyMap(inst, align.Random(r, rng), a)
	case 2:
		return metafunc.NewMapping(map[string]string{"x": "Y", "y": "new", "z": "x"})
	}
	return metafunc.Identity{}
}

// TestCountRefineMatchesForced: the counting pass of a lazy Refine — pure
// blocks added as a constant, mixed blocks of every size counted in the
// dense per-code array — must give the surpluses its own forced blocks
// give, over identity, induced functions and mappings.
// New, a forced Refine and RefineAll must carry the pure-block counts a
// recount of their blocks gives.
func TestCountRefineMatchesForced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pure, oneOne, small, large int // parent blocks counted, by kind
	check := func(name string, r *blocking.Result, tSur, sSur int) {
		t.Helper()
		wantT, wantS, wantPS, wantPT := recount(r)
		if tSur != wantT || sSur != wantS {
			t.Fatalf("%s: surpluses %d/%d, forced blocks give %d/%d", name, tSur, sSur, wantT, wantS)
		}
		if ps, pt := r.PureCounts(); ps != wantPS || pt != wantPT {
			t.Fatalf("%s: pure counts %d/%d, recount %d/%d", name, ps, pt, wantPS, wantPT)
		}
	}
	for iter := 0; iter < 300; iter++ {
		inst := randomInstance(t, rng)
		r := blocking.New(inst)
		check(fmt.Sprintf("iter %d: New", iter), r, r.TargetSurplus(), r.SourceSurplus())
		for depth := 0; depth < 2*inst.NumAttrs(); depth++ {
			a := rng.Intn(inst.NumAttrs())
			f := randomRefinement(rng, inst, r, a)
			if ps, pt := r.PureCounts(); ps+pt > 0 {
				pure++
			}
			for _, b := range r.MixedBlocks() {
				switch n := len(b.Src) + len(b.Tgt); {
				case n == 2:
					oneOne++
				case n <= 16:
					small++
				default:
					large++
				}
			}
			child := r.Refine(a, f)
			// Read the counting pass's surpluses before anything forces.
			tSur, sSur := child.TargetSurplus(), child.SourceSurplus()
			check(fmt.Sprintf("iter %d depth %d: Refine(%d, %s)", iter, depth, a, f), child, tSur, sSur)
			r = child
		}
		attrs, fs := randomTuple(rng, inst.NumAttrs())
		all := blocking.New(inst).RefineAll(attrs, fs)
		check(fmt.Sprintf("iter %d: RefineAll(%v)", iter, attrs), all, all.TargetSurplus(), all.SourceSurplus())
	}
	t.Logf("parent blocks counted: pure %d, 1+1 %d, ≤16 %d, >16 %d", pure, oneOne, small, large)
	if pure == 0 || oneOne == 0 || small == 0 || large == 0 {
		t.Fatalf("parent blocks counted: pure %d, 1+1 %d, ≤16 %d, >16 %d; every kind must occur",
			pure, oneOne, small, large)
	}
}
