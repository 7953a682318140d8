package blocking_test

import (
	"slices"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// refBlock is one block of the naive reference.
type refBlock struct{ src, tgt []int32 }

// reference is the naive blocking of the refinement chain (attrs[i],
// fs[i]): every record — pure blocks included — is grouped level by level
// on value strings, each block splitting in first appearance, sources
// before targets. It returns the mixed blocks in order, the records of the
// pure ones and the surpluses over all blocks.
func reference(inst *delta.Instance, attrs []int, fs []metafunc.Func) (mixed []refBlock, pureS, pureT, tSur, sSur int) {
	root := refBlock{}
	for s := 0; s < inst.Source.Len(); s++ {
		root.src = append(root.src, int32(s))
	}
	for t := 0; t < inst.Target.Len(); t++ {
		root.tgt = append(root.tgt, int32(t))
	}
	blocks := []refBlock{root}
	for i, a := range attrs {
		var next []refBlock
		for _, b := range blocks {
			child := map[string]int{}
			at := func(key string) *refBlock {
				j, ok := child[key]
				if !ok {
					j = len(next)
					child[key] = j
					next = append(next, refBlock{})
				}
				return &next[j]
			}
			for _, s := range b.src {
				c := at(fs[i].Apply(inst.Source.Value(int(s), a)))
				c.src = append(c.src, s)
			}
			for _, t := range b.tgt {
				c := at(inst.Target.Value(int(t), a))
				c.tgt = append(c.tgt, t)
			}
		}
		blocks = next
	}
	for _, b := range blocks {
		if d := len(b.tgt) - len(b.src); d > 0 {
			tSur += d
		} else {
			sSur -= d
		}
		if len(b.src) > 0 && len(b.tgt) > 0 {
			mixed = append(mixed, b)
		} else {
			pureS += len(b.src)
			pureT += len(b.tgt)
		}
	}
	return mixed, pureS, pureT, tSur, sSur
}

// mixed returns r's mixed blocks in order, read through NumMixed and
// Mixed; the members share r's arrays.
func mixed(r *blocking.Result) []refBlock {
	out := make([]refBlock, r.NumMixed())
	for i := range out {
		out[i].src, out[i].tgt = r.Mixed(i)
	}
	return out
}

// sameBlocks reports whether a and b hold the same blocks, in order and
// with the same members.
func sameBlocks(a, b []refBlock) bool {
	return slices.EqualFunc(a, b, func(x, y refBlock) bool {
		return slices.Equal(x.src, y.src) && slices.Equal(x.tgt, y.tgt)
	})
}

// checkReference fails unless r — the result of the chain (attrs, fs) —
// holds exactly the reference's mixed blocks, in order and with the same
// members, its pure counts and its surpluses. Every block's member slices
// must end at their capacity, so an append by a reader cannot write into
// the next block.
func checkReference(t *testing.T, name string, r *blocking.Result, attrs []int, fs []metafunc.Func) {
	t.Helper()
	want, wantPS, wantPT, wantT, wantS := reference(r.Instance(), attrs, fs)
	got := mixed(r)
	if !sameBlocks(got, want) {
		t.Fatalf("%s: %d mixed blocks differ from the reference's %d", name, len(got), len(want))
	}
	for i, b := range got {
		if cap(b.src) != len(b.src) || cap(b.tgt) != len(b.tgt) {
			t.Fatalf("%s: block %d has capacity %d/%d past its %d/%d members", name, i, cap(b.src), cap(b.tgt), len(b.src), len(b.tgt))
		}
	}
	if ps, pt := r.PureCounts(); ps != wantPS || pt != wantPT {
		t.Fatalf("%s: pure counts %d/%d, reference %d/%d", name, ps, pt, wantPS, wantPT)
	}
	if r.TargetSurplus() != wantT || r.SourceSurplus() != wantS {
		t.Fatalf("%s: surpluses %d/%d, reference %d/%d", name, r.TargetSurplus(), r.SourceSurplus(), wantT, wantS)
	}
}
