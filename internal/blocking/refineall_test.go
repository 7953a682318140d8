package blocking_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// randomInstance builds a small instance over a tiny alphabet, so blocks
// split, merge under functions and collide across sides. Either side may
// be empty.
func randomInstance(t *testing.T, rng *rand.Rand) *delta.Instance {
	t.Helper()
	names := make([]string, 1+rng.Intn(5))
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	src, tgt := randomTables(rng, table.MustSchema(names...))
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// alphabet is the value set of random instances.
var alphabet = []string{"x", "y", "X", "Y", "px", "z", ""}

// randomTables draws a source and a target of up to 39 rows each over
// alphabet, each column skewed towards its first few values.
func randomTables(rng *rand.Rand, schema *table.Schema) (src, tgt *table.Table) {
	rows := func() []table.Record {
		out := make([]table.Record, rng.Intn(40))
		for i := range out {
			out[i] = make(table.Record, schema.Len())
			for a := range out[i] {
				out[i][a] = alphabet[rng.Intn(1+rng.Intn(len(alphabet)))]
			}
		}
		return out
	}
	return table.MustFromRows(schema, rows()), table.MustFromRows(schema, rows())
}

// randomTuple picks a random subset of the attributes in random order —
// empty and all attributes included — with a random function each.
func randomTuple(rng *rand.Rand, numAttrs int) ([]int, []metafunc.Func) {
	attrs := rng.Perm(numAttrs)
	switch rng.Intn(4) {
	case 0:
		attrs = nil
	case 1: // all attributes
	default:
		attrs = attrs[:rng.Intn(numAttrs+1)]
	}
	fs := make([]metafunc.Func, len(attrs))
	for i := range fs {
		switch rng.Intn(5) {
		case 0:
			fs[i] = metafunc.Identity{}
		case 1:
			fs[i] = metafunc.Upper{}
		case 2:
			fs[i] = metafunc.Prefix{Y: "p"}
		case 3:
			fs[i] = metafunc.Constant{C: "x"}
		default:
			fs[i] = metafunc.NewMapping(map[string]string{"x": "Y", "y": "new", "z": "x"})
		}
	}
	return attrs, fs
}

// TestRefineAllMatchesChain: RefineAll must return exactly what the forced
// Refine chain returns — the same mixed blocks in the same order with the
// same members, the same pure counts and surpluses, all of them the naive
// reference's — and must leave the dictionaries exactly as the chain does
// (memos in chain order, so function outputs get the same codes).
func TestRefineAllMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		inst := randomInstance(t, rng)
		attrs, fs := randomTuple(rng, inst.NumAttrs())
		// Fresh dictionaries per side: the two instances share the tables
		// but intern independently.
		twin, err := delta.NewInstance(inst.Source, inst.Target, nil)
		if err != nil {
			t.Fatal(err)
		}
		chain := blocking.New(inst)
		for i, a := range attrs {
			chain = chain.Refine(a, fs[i])
		}
		all := blocking.New(twin).RefineAll(attrs, fs)
		name := fmt.Sprintf("iter %d (attrs %v)", iter, attrs)

		if !sameBlocks(mixed(chain), mixed(all)) {
			t.Fatalf("%s: mixed blocks differ from the chain", name)
		}
		cs, ct := chain.PureCounts()
		as, at := all.PureCounts()
		if cs != as || ct != at {
			t.Fatalf("%s: pure counts %d/%d, chain %d/%d", name, as, at, cs, ct)
		}
		if chain.TargetSurplus() != all.TargetSurplus() || chain.SourceSurplus() != all.SourceSurplus() {
			t.Fatalf("%s: surpluses %d/%d, chain %d/%d", name,
				all.TargetSurplus(), all.SourceSurplus(), chain.TargetSurplus(), chain.SourceSurplus())
		}
		checkReference(t, name, all, attrs, fs)
		for a := 0; a < inst.NumAttrs(); a++ {
			if got, want := twin.Coded().Dicts[a].Snapshot(), inst.Coded().Dicts[a].Snapshot(); !slices.Equal(got, want) {
				t.Fatalf("%s: attribute %d dictionary %q, chain %q", name, a, got, want)
			}
		}
	}
}

// TestRefineAllCancelled: under a cancelled context RefineAll, like Refine,
// returns its receiver instead of grouping.
func TestRefineAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	root := blocking.New(randomInstance(t, rand.New(rand.NewSource(2)))).WithContext(ctx)
	cancel()
	if got := root.RefineAll([]int{0}, []metafunc.Func{metafunc.Identity{}}); got != root {
		t.Error("RefineAll under a cancelled context did not return its receiver")
	}
	if got := root.Refine(0, metafunc.Identity{}); got != root {
		t.Error("Refine under a cancelled context did not return its receiver")
	}
}

// indeterminacy pairs an attribute with its naive indeterminacy.
type indeterminacy struct{ attr, ind int }

// naiveRanking is the oracle for LeastIndeterminate: every attribute of
// attrs with the largest number of distinct source value strings in one
// mixed block of r, stably sorted by (indeterminacy, attribute index).
func naiveRanking(inst *delta.Instance, r *blocking.Result, attrs []int) []indeterminacy {
	naive := make([]indeterminacy, len(attrs))
	for i, attr := range attrs {
		most := 0
		for _, b := range mixed(r) {
			distinct := map[string]bool{}
			for _, s := range b.src {
				distinct[inst.Source.Value(int(s), attr)] = true
			}
			most = max(most, len(distinct))
		}
		naive[i] = indeterminacy{attr: attr, ind: most}
	}
	slices.SortStableFunc(naive, func(a, b indeterminacy) int {
		if a.ind != b.ind {
			return a.ind - b.ind
		}
		return a.attr - b.attr
	})
	return naive
}

// checkLeastIndeterminate compares LeastIndeterminate(attrs, k) with the
// first k attributes of naive, for every k up to one past len(attrs).
func checkLeastIndeterminate(t *testing.T, name string, r *blocking.Result, attrs []int, naive []indeterminacy) {
	t.Helper()
	for k := 0; k <= len(attrs)+1; k++ {
		var want []int
		for _, e := range naive[:min(k, len(naive))] {
			want = append(want, e.attr)
		}
		if got := r.LeastIndeterminate(attrs, k); !slices.Equal(got, want) {
			t.Fatalf("%s: LeastIndeterminate(%v, %d) = %v, naive %v (%v)", name, attrs, k, got, want, naive)
		}
	}
}

// TestLeastIndeterminateMatchesStableSort: for every k, LeastIndeterminate
// must return the first k attributes of a naive stable sort by (distinct
// source values in the most indeterminate mixed block, attribute index),
// however the attributes are passed in — at blockings from one giant block
// to many small ones, with ties between attributes.
func TestLeastIndeterminateMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ties := 0
	for iter := 0; iter < 300; iter++ {
		inst := randomInstance(t, rng)
		tupleAttrs, fs := randomTuple(rng, inst.NumAttrs())
		r := blocking.New(inst).RefineAll(tupleAttrs, fs)
		attrs := rng.Perm(inst.NumAttrs())[:rng.Intn(inst.NumAttrs()+1)]
		naive := naiveRanking(inst, r, attrs)
		for i := 1; i < len(naive); i++ {
			if naive[i].ind == naive[i-1].ind {
				ties++
			}
		}
		checkLeastIndeterminate(t, fmt.Sprintf("iter %d", iter), r, attrs, naive)
	}
	if ties == 0 {
		t.Fatal("no indeterminacy tie: the inputs do not exercise the tie-break")
	}
}
