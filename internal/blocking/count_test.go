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
// dense per-code array — must give the surpluses of the naive reference,
// over identity, induced functions and mappings; and New, a forced Refine
// and RefineAll must carry the reference's mixed blocks and pure counts.
func TestCountRefineMatchesForced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pure, oneOne, small, large int // parent blocks counted, by kind
	for iter := 0; iter < 300; iter++ {
		inst := randomInstance(t, rng)
		r := blocking.New(inst)
		checkReference(t, fmt.Sprintf("iter %d: New", iter), r, nil, nil)
		var attrs []int
		var fs []metafunc.Func
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
			// The counting pass's surpluses are read before anything
			// forces the child; checkReference forces it afterwards.
			child := r.Refine(a, f)
			attrs, fs = append(attrs, a), append(fs, f)
			checkReference(t, fmt.Sprintf("iter %d depth %d: Refine(%d, %s)", iter, depth, a, f), child, attrs, fs)
			r = child
		}
		attrs, fs = randomTuple(rng, inst.NumAttrs())
		all := blocking.New(inst).RefineAll(attrs, fs)
		checkReference(t, fmt.Sprintf("iter %d: RefineAll(%v)", iter, attrs), all, attrs, fs)
	}
	t.Logf("parent blocks counted: pure %d, 1+1 %d, ≤16 %d, >16 %d", pure, oneOne, small, large)
	if pure == 0 || oneOne == 0 || small == 0 || large == 0 {
		t.Fatalf("parent blocks counted: pure %d, 1+1 %d, ≤16 %d, >16 %d; every kind must occur",
			pure, oneOne, small, large)
	}
}
