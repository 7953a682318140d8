package catalog

import (
	"context"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/report"
)

// TestSummarizeStepMatchesStringRecount: the summary counts changed core
// cells by comparing codes; recounting them by comparing the cells' string
// values over a few warm chain steps (whose session pool keeps growing)
// gives the same update and per-function churn counts.
func TestSummarizeStepMatchesStringRecount(t *testing.T) {
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for _, name := range []string{"bridges", "iris", "ncvoter-1k"} {
		ds, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ds.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, permute := range []bool{false, true} {
			ch, err := gen.MakeChain(tab, gen.ChainConfig{Steps: 3, Eta: 0.1, Tau: 0.5, Seed: 2, PermuteKeys: permute})
			if err != nil {
				t.Fatal(err)
			}
			sess := ex.Session(ch.Snapshots[0])
			for i := 1; i < len(ch.Snapshots); i++ {
				res, err := sess.ExplainNextContext(context.Background(), ch.Snapshots[i])
				if err != nil {
					t.Fatal(err)
				}
				e := res.Explanation
				perAttr := make([]int, e.Inst.NumAttrs())
				updates := 0
				for k := range e.CoreSrc {
					rowChanged := false
					for a := range perAttr {
						if e.Inst.Source.Value(e.CoreSrc[k], a) != e.Inst.Target.Value(e.CoreTgt[k], a) {
							perAttr[a]++
							rowChanged = true
						}
					}
					if rowChanged {
						updates++
					}
				}
				changed += updates
				sum := SummarizeStep(res)
				if sum.Updates != updates {
					t.Errorf("%s permute=%v step %d: %d updates, string recount %d", name, permute, i, sum.Updates, updates)
				}
				var want []int
				for a, f := range report.Functions(e) {
					if f.Kind != "identity" {
						want = append(want, perAttr[a])
					}
				}
				if len(sum.Functions) != len(want) {
					t.Fatalf("%s permute=%v step %d: %d functions summarised, %d non-identity", name, permute, i, len(sum.Functions), len(want))
				}
				for j, f := range sum.Functions {
					if f.Updated != want[j] {
						t.Errorf("%s permute=%v step %d: %s updated %d, string recount %d", name, permute, i, f.Attribute, f.Updated, want[j])
					}
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("no core record changed on any step; the recount compared nothing")
	}
}
