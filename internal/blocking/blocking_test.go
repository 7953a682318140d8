package blocking_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

func TestInitialResult(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst)
	if r.NumMixed() != 1 {
		t.Fatalf("initial mixed blocks = %d, want 1", r.NumMixed())
	}
	if src, tgt := r.Mixed(0); len(src) != 17 || len(tgt) != 16 {
		t.Error("initial block shape wrong")
	}
	checkReference(t, "New", r, nil, nil)
	// An instance with one empty side has no mixed block: every record is
	// counted as pure.
	onlySrc, err := delta.NewInstance(inst.Source, inst.Source.Select(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkReference(t, "New (no targets)", blocking.New(onlySrc), nil, nil)
	if r.TargetSurplus() != 0 {
		t.Errorf("TargetSurplus = %d, want 0", r.TargetSurplus())
	}
	if r.SourceSurplus() != 1 {
		t.Errorf("SourceSurplus = %d, want 1", r.SourceSurplus())
	}
}

// TestFigure3Block reproduces the paper's Figure 3: under state
// H1 = (*,*,*,id,*,x↦'k $',id), the block with κ = (C, 'k $', SAP) contains
// sources {S08, S09, S10} and targets {T08, T10}.
func TestFigure3Block(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst).
		Refine(fixture.Type, metafunc.Identity{}).
		Refine(fixture.Unit, metafunc.Constant{C: "k $"}).
		Refine(fixture.Org, metafunc.Identity{})

	var kappa []int32 // the block's targets
	for _, b := range mixed(r) {
		if len(b.src) == 3 && len(b.tgt) == 2 {
			srcIDs := map[string]bool{}
			for _, s := range b.src {
				srcIDs[inst.Source.Value(int(s), fixture.ID1)] = true
			}
			if srcIDs["S08"] && srcIDs["S09"] && srcIDs["S10"] {
				kappa = b.tgt
			}
		}
	}
	if kappa == nil {
		t.Fatal("Figure 3 block (C, k $, SAP) not found")
	}
	tgtIDs := map[string]bool{}
	for _, ti := range kappa {
		tgtIDs[inst.Target.Value(int(ti), fixture.ID1)] = true
	}
	if !tgtIDs["T08"] || !tgtIDs["T10"] || len(tgtIDs) != 2 {
		t.Errorf("Figure 3 block targets = %v, want {T08, T10}", tgtIDs)
	}
}

func TestRefineIsNonDestructive(t *testing.T) {
	inst := fixture.Instance()
	r0 := blocking.New(inst)
	_ = r0.Refine(fixture.Org, metafunc.Identity{}).NumMixed()
	if r0.NumMixed() != 1 {
		t.Error("Refine mutated its receiver")
	}
}

func TestRefinePartitions(t *testing.T) {
	inst := fixture.Instance()
	attrs := []int{fixture.Org, fixture.Type}
	fs := []metafunc.Func{metafunc.Identity{}, metafunc.Identity{}}
	r := blocking.New(inst).Refine(attrs[0], fs[0]).Refine(attrs[1], fs[1])
	// The mixed blocks and the pure counts together hold every record once.
	ns, nt := r.PureCounts()
	seenS, seenT := map[int32]bool{}, map[int32]bool{}
	for _, b := range mixed(r) {
		ns += len(b.src)
		nt += len(b.tgt)
		for _, s := range b.src {
			if seenS[s] {
				t.Errorf("source %d in two blocks", s)
			}
			seenS[s] = true
		}
		for _, tt := range b.tgt {
			if seenT[tt] {
				t.Errorf("target %d in two blocks", tt)
			}
			seenT[tt] = true
		}
	}
	if ns != inst.Source.Len() || nt != inst.Target.Len() {
		t.Errorf("blocks lost records: %d/%d sources, %d/%d targets",
			ns, inst.Source.Len(), nt, inst.Target.Len())
	}
	checkReference(t, "Org, Type", r, attrs, fs)
}

func TestRefineAppliesSourceFunction(t *testing.T) {
	// Refining Unit with the constant 'k $' must put every source into the
	// same group as the targets (whose Unit is literally 'k $').
	inst := fixture.Instance()
	r := blocking.New(inst).Refine(fixture.Unit, metafunc.Constant{C: "k $"})
	if n := r.NumMixed(); n != 1 {
		t.Fatalf("constant refinement should keep one block, got %d mixed", n)
	}
	if ps, pt := r.PureCounts(); ps+pt != 0 {
		t.Fatalf("constant refinement left %d/%d records in pure blocks", ps, pt)
	}
	// Refining Unit with identity must separate USD sources from k $ targets:
	// two pure blocks.
	r2 := blocking.New(inst).Refine(fixture.Unit, metafunc.Identity{})
	if n := r2.NumMixed(); n != 0 {
		t.Fatalf("identity refinement should split Unit, got %d mixed blocks", n)
	}
	if ps, pt := r2.PureCounts(); ps != 17 || pt != 16 {
		t.Fatalf("identity refinement pure counts %d/%d, want 17/16", ps, pt)
	}
	if r2.TargetSurplus() != 16 || r2.SourceSurplus() != 17 {
		t.Errorf("surpluses = %d/%d, want 16/17",
			r2.TargetSurplus(), r2.SourceSurplus())
	}
}

func TestSurplusBoundsUnderCorrectFunctions(t *testing.T) {
	// Refining with the full reference tuple yields surpluses equal to the
	// true |T^{E+}| and |S^{E−}| of E1 (end-state coherence, Section 4.5).
	inst := fixture.Instance()
	ref := fixture.ReferenceFuncs()
	r := blocking.New(inst)
	for a := 0; a < inst.NumAttrs(); a++ {
		r = r.Refine(a, ref[a])
	}
	if got := r.TargetSurplus(); got != 3 {
		t.Errorf("TargetSurplus = %d, want |T^{E1+}| = 3", got)
	}
	if got := r.SourceSurplus(); got != 4 {
		t.Errorf("SourceSurplus = %d, want |S^{E1−}| = 4", got)
	}
}

// TestIndeterminacy ranks the Figure 1 attributes. At the root the one
// mixed block holds all 17 sources: Unit has 1 distinct value, Org 3,
// Type 5, Val 11, Date 12, ID1 and ID2 17 each. Refining on Org leaves the
// mixed blocks IBM, SAP and BASF, where Org and Unit tie at 1 (broken by
// attribute index), Type drops to 3, Date to 5, and ID1, ID2 and Val tie
// at 7.
func TestIndeterminacy(t *testing.T) {
	inst := fixture.Instance()
	all := []int{fixture.Org, fixture.ID2, fixture.Val, fixture.Date, fixture.ID1, fixture.Unit, fixture.Type}
	r := blocking.New(inst)
	want := []int{fixture.Unit, fixture.Org, fixture.Type, fixture.Val, fixture.Date, fixture.ID1, fixture.ID2}
	if got := r.LeastIndeterminate(all, len(all)); !slices.Equal(got, want) {
		t.Errorf("root: LeastIndeterminate = %v, want %v", got, want)
	}
	if got := r.LeastIndeterminate([]int{fixture.ID1, fixture.Org, fixture.Unit}, 3); !slices.Equal(got, []int{fixture.Unit, fixture.Org, fixture.ID1}) {
		t.Errorf("root: LeastIndeterminate(ID1, Org, Unit) = %v, want [Unit Org ID1]", got)
	}
	r2 := r.Refine(fixture.Org, metafunc.Identity{})
	want = []int{fixture.Unit, fixture.Org, fixture.Type, fixture.Date, fixture.ID1, fixture.ID2, fixture.Val}
	if got := r2.LeastIndeterminate(all, len(all)); !slices.Equal(got, want) {
		t.Errorf("refined on Org: LeastIndeterminate = %v, want %v", got, want)
	}
	if got := r2.LeastIndeterminate(all, 3); !slices.Equal(got, want[:3]) {
		t.Errorf("refined on Org: LeastIndeterminate(k=3) = %v, want %v", got, want[:3])
	}
}

func TestKeySeparatorSafety(t *testing.T) {
	// Values that would collide under naive concatenation must not merge.
	s := table.MustSchema("a", "b")
	src := table.MustFromRows(s, []table.Record{{"x|", "y"}, {"x", "|y"}})
	tgt := table.MustFromRows(s, []table.Record{{"x|", "y"}})
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := blocking.New(inst).
		Refine(0, metafunc.Identity{}).
		Refine(1, metafunc.Identity{})
	// {x|, y} is one mixed block, {x, |y} one source-only block.
	if n, ps := r.NumMixed(), 0; n != 1 {
		t.Errorf("separator collision: %d mixed blocks, want 1", n)
	} else if ps, _ = r.PureCounts(); ps != 1 {
		t.Errorf("separator collision: %d source-only records, want 1", ps)
	}
}

func TestMixedBlocks(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst).Refine(fixture.Unit, metafunc.Identity{})
	if got := r.NumMixed(); got != 0 {
		t.Errorf("NumMixed = %d, want 0 (USD vs k $ separates all)", got)
	}
	r2 := blocking.New(inst).Refine(fixture.Org, metafunc.Identity{})
	if got := r2.NumMixed(); got != 3 {
		t.Errorf("NumMixed = %d, want 3 (IBM, SAP, BASF)", got)
	}
	checkReference(t, "Unit", r, []int{fixture.Unit}, []metafunc.Func{metafunc.Identity{}})
	checkReference(t, "Org", r2, []int{fixture.Org}, []metafunc.Func{metafunc.Identity{}})
}

// TestIndeterminaciesMatchNaiveCount checks LeastIndeterminate — one epoch
// array over all attributes, blocks no larger than the running maximum
// skipped, losing attributes abandoned early — against a naive per-block
// set of value strings on Figure 1, at blockings from one giant block to
// many small ones and to none mixed.
func TestIndeterminaciesMatchNaiveCount(t *testing.T) {
	inst := fixture.Instance()
	root := blocking.New(inst)
	for _, tc := range []struct {
		name string
		r    *blocking.Result
	}{
		{"root", root},
		{"org", root.Refine(fixture.Org, metafunc.Identity{})},
		{"type+org", root.Refine(fixture.Type, metafunc.Identity{}).Refine(fixture.Org, metafunc.Identity{})},
		{"unit (no mixed block)", root.Refine(fixture.Unit, metafunc.Identity{})},
		{"unit constant", root.Refine(fixture.Unit, metafunc.Constant{C: "k $"})},
	} {
		attrs := make([]int, inst.NumAttrs())
		for a := range attrs {
			attrs[a] = inst.NumAttrs() - 1 - a // any order, every attribute
		}
		checkLeastIndeterminate(t, tc.name, tc.r, attrs, naiveRanking(inst, tc.r, attrs))
	}
}

// TestForcedResultReleasesParent: refinement is lazy, so an unforced result
// must keep its parent to group from — but once forced it must let go.
// Otherwise every search state pins its whole chain of materialised
// ancestors (the mixed blocks of every level), which is what made runs
// peak far above the eager refinement this replaced.
func TestForcedResultReleasesParent(t *testing.T) {
	mid := blocking.New(fixture.Instance()).Refine(fixture.Type, metafunc.Identity{})
	collected := make(chan struct{})
	runtime.SetFinalizer(mid, func(*blocking.Result) { close(collected) })
	leaf := mid.Refine(fixture.Org, metafunc.Identity{})
	if leaf.NumMixed() == 0 { // forces leaf (and, through Refine, mid)
		t.Fatal("refinement produced no mixed blocks")
	}
	checkReference(t, "leaf", leaf, []int{fixture.Type, fixture.Org}, []metafunc.Func{metafunc.Identity{}, metafunc.Identity{}})
	mid = nil
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(leaf)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a forced result still keeps its parent alive")
}

// TestForceAllocatesOnlyItsLevel: with the attribute's apply memo warm,
// refining and forcing allocates the Result, its pending refinement and
// the four arrays of its level — nothing per block, because readers index
// the level itself.
func TestForceAllocatesOnlyItsLevel(t *testing.T) {
	root := blocking.New(fixture.Instance())
	if root.Refine(fixture.Org, metafunc.Identity{}).NumMixed() == 0 { // warms the memo
		t.Fatal("refining on Org left no mixed block")
	}
	allocs := testing.AllocsPerRun(100, func() {
		root.Refine(fixture.Org, metafunc.Identity{}).NumMixed()
	})
	if allocs > 6 {
		t.Errorf("Refine + NumMixed allocated %.0f objects, want at most 6 (Result, lazyRefine, 4 level arrays)", allocs)
	}
}
