package blocking_test

import (
	"runtime"
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
	if r.NumBlocks() != 1 {
		t.Fatalf("initial blocks = %d, want 1", r.NumBlocks())
	}
	b := r.Blocks()[0]
	if len(b.Src) != 17 || len(b.Tgt) != 16 || !b.Mixed() {
		t.Error("initial block shape wrong")
	}
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

	var kappa *blocking.Block
	for _, b := range r.Blocks() {
		if len(b.Src) == 3 && len(b.Tgt) == 2 {
			srcIDs := map[string]bool{}
			for _, s := range b.Src {
				srcIDs[inst.Source.Value(int(s), fixture.ID1)] = true
			}
			if srcIDs["S08"] && srcIDs["S09"] && srcIDs["S10"] {
				kappa = b
			}
		}
	}
	if kappa == nil {
		t.Fatal("Figure 3 block (C, k $, SAP) not found")
	}
	tgtIDs := map[string]bool{}
	for _, ti := range kappa.Tgt {
		tgtIDs[inst.Target.Value(int(ti), fixture.ID1)] = true
	}
	if !tgtIDs["T08"] || !tgtIDs["T10"] || len(tgtIDs) != 2 {
		t.Errorf("Figure 3 block targets = %v, want {T08, T10}", tgtIDs)
	}
}

func TestRefineIsNonDestructive(t *testing.T) {
	inst := fixture.Instance()
	r0 := blocking.New(inst)
	_ = r0.Refine(fixture.Org, metafunc.Identity{})
	if r0.NumBlocks() != 1 {
		t.Error("Refine mutated its receiver")
	}
}

func TestRefinePartitions(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst).
		Refine(fixture.Org, metafunc.Identity{}).
		Refine(fixture.Type, metafunc.Identity{})
	ns, nt := 0, 0
	for _, b := range r.Blocks() {
		ns += len(b.Src)
		nt += len(b.Tgt)
	}
	if ns != inst.Source.Len() || nt != inst.Target.Len() {
		t.Errorf("blocks lost records: %d/%d sources, %d/%d targets",
			ns, inst.Source.Len(), nt, inst.Target.Len())
	}
	// Every record must be findable via its block map.
	for s := 0; s < inst.Source.Len(); s++ {
		found := false
		for _, m := range r.BlockOfSource(s).Src {
			if int(m) == s {
				found = true
			}
		}
		if !found {
			t.Errorf("BlockOfSource(%d) does not contain the record", s)
		}
	}
	for ti := 0; ti < inst.Target.Len(); ti++ {
		found := false
		for _, m := range r.BlockOfTarget(ti).Tgt {
			if int(m) == ti {
				found = true
			}
		}
		if !found {
			t.Errorf("BlockOfTarget(%d) does not contain the record", ti)
		}
	}
}

func TestRefineAppliesSourceFunction(t *testing.T) {
	// Refining Unit with the constant 'k $' must put every source into the
	// same group as the targets (whose Unit is literally 'k $').
	inst := fixture.Instance()
	r := blocking.New(inst).Refine(fixture.Unit, metafunc.Constant{C: "k $"})
	if r.NumBlocks() != 1 {
		t.Fatalf("constant refinement should keep one block, got %d", r.NumBlocks())
	}
	// Refining Unit with identity must separate USD sources from k $ targets.
	r2 := blocking.New(inst).Refine(fixture.Unit, metafunc.Identity{})
	if r2.NumBlocks() != 2 {
		t.Fatalf("identity refinement should split Unit, got %d blocks", r2.NumBlocks())
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

func TestIndeterminacy(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst)
	// One mixed block with 17 sources: indeterminacy of ID1 is 17 distinct
	// values, of Unit is 1, of Org is 4 (IBM, SAP, BASF ×2 spellings? no — 3).
	if got := r.Indeterminacy(fixture.ID1); got != 17 {
		t.Errorf("Indeterminacy(ID1) = %d, want 17", got)
	}
	if got := r.Indeterminacy(fixture.Unit); got != 1 {
		t.Errorf("Indeterminacy(Unit) = %d, want 1", got)
	}
	if got := r.Indeterminacy(fixture.Org); got != 3 {
		t.Errorf("Indeterminacy(Org) = %d, want 3", got)
	}
	// After refining on Org, the max distinct Type count per block drops.
	r2 := r.Refine(fixture.Org, metafunc.Identity{})
	if got := r2.Indeterminacy(fixture.Type); got >= r.Indeterminacy(fixture.Type) {
		t.Errorf("refinement did not reduce Type indeterminacy: %d", got)
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
	if r.NumBlocks() != 2 {
		t.Errorf("separator collision: %d blocks, want 2", r.NumBlocks())
	}
}

func TestMixedBlocks(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst).Refine(fixture.Unit, metafunc.Identity{})
	if got := len(r.MixedBlocks()); got != 0 {
		t.Errorf("MixedBlocks = %d, want 0 (USD vs k $ separates all)", got)
	}
	r2 := blocking.New(inst).Refine(fixture.Org, metafunc.Identity{})
	if got := len(r2.MixedBlocks()); got != 3 {
		t.Errorf("MixedBlocks = %d, want 3 (IBM, SAP, BASF)", got)
	}
}

// TestIndeterminaciesMatchNaiveCount checks the shared-scratch distinct
// counter — one epoch array over all attributes, blocks no larger than the
// running maximum skipped — against a naive per-block set of value strings,
// at blockings from one giant block to many small ones.
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
		got := tc.r.Indeterminacies(attrs)
		for i, attr := range attrs {
			want := 0
			for _, b := range tc.r.MixedBlocks() {
				distinct := map[string]bool{}
				for _, s := range b.Src {
					distinct[inst.Source.Value(int(s), attr)] = true
				}
				want = max(want, len(distinct))
			}
			if got[i] != want || tc.r.Indeterminacy(attr) != want {
				t.Errorf("%s: attr %d: Indeterminacies = %d, Indeterminacy = %d, naive count = %d",
					tc.name, attr, got[i], tc.r.Indeterminacy(attr), want)
			}
		}
	}
}

// TestForcedResultReleasesParent: refinement is lazy, so an unforced result
// must keep its parent to group from — but once forced it must let go.
// Otherwise every search state pins its whole chain of materialised
// ancestors (two record→block arrays plus the block lists per level),
// which is what made budgeted runs peak far above the eager refinement
// this replaced.
func TestForcedResultReleasesParent(t *testing.T) {
	mid := blocking.New(fixture.Instance()).Refine(0, metafunc.Identity{})
	collected := make(chan struct{})
	runtime.SetFinalizer(mid, func(*blocking.Result) { close(collected) })
	leaf := mid.Refine(1, metafunc.Identity{})
	if leaf.NumBlocks() == 0 { // forces leaf (and, through Refine, mid)
		t.Fatal("refinement produced no blocks")
	}
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
