package blocking_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// Property: refining on the same attributes in any order produces the same
// partition (blocking is order-independent): the same mixed blocks up to
// their order, the same pure counts and surpluses. Each order also matches
// the naive reference, order included.
func TestQuickRefinementOrderIndependent(t *testing.T) {
	inst := fixture.Instance()
	attrs := []int{fixture.Type, fixture.Org, fixture.Date, fixture.ID2}
	ids := make([]metafunc.Func, len(attrs))
	for i := range ids {
		ids[i] = metafunc.Identity{}
	}
	// members renders a result's mixed blocks as a sorted list of keys.
	members := func(r *blocking.Result) []string {
		var out []string
		for _, b := range mixed(r) {
			out = append(out, fmt.Sprint(b.src, b.tgt))
		}
		slices.Sort(out)
		return out
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(attrs))
		permuted := make([]int, len(attrs))
		a := blocking.New(inst)
		b := blocking.New(inst)
		for i := range attrs {
			permuted[i] = attrs[perm[i]]
			a = a.Refine(attrs[i], metafunc.Identity{})
			b = b.Refine(permuted[i], metafunc.Identity{})
		}
		checkReference(t, "attribute order", a, attrs, ids)
		checkReference(t, fmt.Sprintf("order %v", permuted), b, permuted, ids)
		aS, aT := a.PureCounts()
		bS, bT := b.PureCounts()
		return slices.Equal(members(a), members(b)) && aS == bS && aT == bT &&
			a.TargetSurplus() == b.TargetSurplus() &&
			a.SourceSurplus() == b.SourceSurplus()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: refinement never merges blocks — a record in a pure block stays
// in one, so the pure counts are nondecreasing, and surpluses are
// nondecreasing (coarser blocking underestimates less).
func TestQuickRefinementMonotone(t *testing.T) {
	inst := fixture.Instance()
	ref := fixture.ReferenceFuncs()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(inst.NumAttrs())
		r := blocking.New(inst)
		prevPS, prevPT := r.PureCounts()
		prevTS, prevSS := r.TargetSurplus(), r.SourceSurplus()
		for _, a := range order {
			r = r.Refine(a, ref[a])
			ps, pt := r.PureCounts()
			if ps < prevPS || pt < prevPT || r.TargetSurplus() < prevTS || r.SourceSurplus() < prevSS {
				return false
			}
			prevPS, prevPT, prevTS, prevSS = ps, pt, r.TargetSurplus(), r.SourceSurplus()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: for random two-column tables, every record lands in exactly one
// block: the mixed blocks and the pure counts partition both sides, and
// the mixed blocks are the naive reference's.
func TestQuickBlocksPartition(t *testing.T) {
	schema := table.MustSchema("a", "b")
	f := func(cells []string, split uint8) bool {
		if len(cells) < 4 {
			return true
		}
		half := int(split)%(len(cells)/2) + 1
		var srcRows, tgtRows []table.Record
		for i := 0; i+1 < len(cells) && i < 2*half; i += 2 {
			srcRows = append(srcRows, table.Record{cells[i], cells[i+1]})
		}
		for i := 1; i+1 < len(cells); i += 2 {
			tgtRows = append(tgtRows, table.Record{cells[i], cells[i+1]})
		}
		if len(srcRows) == 0 || len(tgtRows) == 0 {
			return true
		}
		src := table.MustFromRows(schema, srcRows)
		tgt := table.MustFromRows(schema, tgtRows)
		inst, err := delta.NewInstance(src, tgt, nil)
		if err != nil {
			return false
		}
		attrs, fs := []int{0, 1}, []metafunc.Func{metafunc.Identity{}, metafunc.Identity{}}
		r := blocking.New(inst).Refine(attrs[0], fs[0]).Refine(attrs[1], fs[1])
		checkReference(t, fmt.Sprintf("cells %q", cells), r, attrs, fs)
		ns, nt := r.PureCounts()
		for _, b := range mixed(r) {
			ns += len(b.src)
			nt += len(b.tgt)
		}
		return ns == src.Len() && nt == tgt.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
