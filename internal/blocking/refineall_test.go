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
	attrs := 1 + rng.Intn(5)
	names := make([]string, attrs)
	for a := range names {
		names[a] = fmt.Sprintf("a%d", a)
	}
	schema := table.MustSchema(names...)
	alphabet := []string{"x", "y", "X", "Y", "px", "z", ""}
	rows := func() []table.Record {
		out := make([]table.Record, rng.Intn(40))
		for i := range out {
			out[i] = make(table.Record, attrs)
			for a := range out[i] {
				out[i][a] = alphabet[rng.Intn(1+rng.Intn(len(alphabet)))]
			}
		}
		return out
	}
	inst, err := delta.NewInstance(table.MustFromRows(schema, rows()), table.MustFromRows(schema, rows()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
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

// blockIndex maps a result's blocks to their positions.
func blockIndex(r *blocking.Result) map[*blocking.Block]int {
	idx := make(map[*blocking.Block]int, r.NumBlocks())
	for i, b := range r.Blocks() {
		idx[b] = i
	}
	return idx
}

// TestRefineAllMatchesChain: RefineAll must return exactly what the forced
// Refine chain returns — blocks in the same order with the same members,
// the same record→block maps, mixed list and surpluses — and must leave
// the dictionaries exactly as the chain does (memos in chain order, so
// function outputs get the same codes).
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

		if !slices.EqualFunc(chain.Blocks(), all.Blocks(), func(a, b *blocking.Block) bool {
			return slices.Equal(a.Src, b.Src) && slices.Equal(a.Tgt, b.Tgt)
		}) {
			t.Fatalf("%s: blocks differ from the chain", name)
		}
		ci, ai := blockIndex(chain), blockIndex(all)
		for s := 0; s < inst.Source.Len(); s++ {
			if ci[chain.BlockOfSource(s)] != ai[all.BlockOfSource(s)] {
				t.Fatalf("%s: BlockOfSource(%d) differs", name, s)
			}
		}
		for tt := 0; tt < inst.Target.Len(); tt++ {
			if ci[chain.BlockOfTarget(tt)] != ai[all.BlockOfTarget(tt)] {
				t.Fatalf("%s: BlockOfTarget(%d) differs", name, tt)
			}
		}
		var cm, am []int
		for _, b := range chain.MixedBlocks() {
			cm = append(cm, ci[b])
		}
		for _, b := range all.MixedBlocks() {
			am = append(am, ai[b])
		}
		if !slices.Equal(cm, am) {
			t.Fatalf("%s: mixed blocks %v, chain %v", name, am, cm)
		}
		if chain.TargetSurplus() != all.TargetSurplus() || chain.SourceSurplus() != all.SourceSurplus() {
			t.Fatalf("%s: surpluses %d/%d, chain %d/%d", name,
				all.TargetSurplus(), all.SourceSurplus(), chain.TargetSurplus(), chain.SourceSurplus())
		}
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
