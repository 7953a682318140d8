package blocking_test

import (
	"fmt"
	"math/rand"
	"testing"

	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
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
			for _, b := range mixed(r) {
				switch n := len(b.src) + len(b.tgt); {
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

	// Key-first: a warm step re-blocks its carried tuple key column first,
	// so every later level splits, and every later count walks, blocks of
	// one source and one target record.
	var keyed, all int // mixed blocks refined after the key, 1:1 and in all
	for iter := 0; iter < 200; iter++ {
		inst := keyedInstance(t, rng)
		attrs, fs := randomTuple(rng, inst.NumAttrs()-1)
		for i := range attrs {
			attrs[i]++
		}
		attrs, fs = append([]int{0}, attrs...), append([]metafunc.Func{keyFunc(rng)}, fs...)
		r := blocking.New(inst).RefineAll(attrs, fs)
		checkReference(t, fmt.Sprintf("keyed iter %d: RefineAll(%v)", iter, attrs), r, attrs, fs)
		for depth := 0; depth < inst.NumAttrs(); depth++ {
			for _, b := range mixed(r) {
				all++
				if len(b.src) == 1 && len(b.tgt) == 1 {
					keyed++
				}
			}
			a := 1 + rng.Intn(inst.NumAttrs()-1)
			f := randomRefinement(rng, inst, r, a)
			child := r.Refine(a, f)
			attrs, fs = append(attrs, a), append(fs, f)
			checkReference(t, fmt.Sprintf("keyed iter %d depth %d: Refine(%d, %s)", iter, depth, a, f), child, attrs, fs)
			r = child
		}
	}
	t.Logf("keyed: %d of %d mixed blocks refined were 1:1", keyed, all)
	if keyed*10 < all*9 {
		t.Fatalf("keyed: only %d of %d mixed blocks refined were 1:1, want at least 90%%", keyed, all)
	}
}

// keyedInstance builds an instance whose attribute 0 is a key: distinct
// per side, most source keys reappear in the target, and a target row
// mostly repeats its source row's other values.
func keyedInstance(t *testing.T, rng *rand.Rand) *delta.Instance {
	t.Helper()
	names := []string{"key"}
	for a := 0; a < 1+rng.Intn(4); a++ {
		names = append(names, fmt.Sprintf("a%d", a))
	}
	schema := table.MustSchema(names...)
	var src, tgt []table.Record
	for i := 0; i < 20+rng.Intn(60); i++ {
		rec := table.Record{fmt.Sprintf("k%d", i)}
		for range names[1:] {
			rec = append(rec, alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(10) > 0 {
			src = append(src, rec)
		}
		if rng.Intn(10) > 0 {
			rec = rec.Clone()
			if a := rng.Intn(len(names)); a > 0 && rng.Intn(3) == 0 {
				rec[a] = alphabet[rng.Intn(len(alphabet))]
			}
			tgt = append(tgt, rec)
		}
	}
	rng.Shuffle(len(tgt), func(i, j int) { tgt[i], tgt[j] = tgt[j], tgt[i] })
	inst, err := delta.NewInstance(table.MustFromRows(schema, src), table.MustFromRows(schema, tgt), nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// keyFunc picks the key column's function: the identity, or a mapping
// that moves a few keys onto others (their blocks lose their match).
func keyFunc(rng *rand.Rand) metafunc.Func {
	if rng.Intn(2) == 0 {
		return metafunc.Identity{}
	}
	m := map[string]string{}
	for range 3 {
		m[fmt.Sprintf("k%d", rng.Intn(40))] = fmt.Sprintf("k%d", rng.Intn(40))
	}
	return metafunc.NewMapping(m)
}
