package baseline_test

import (
	"context"
	"testing"

	"affidavit/internal/baseline"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/search"
)

func TestExhaustiveCertifiesSearchOnI1Subset(t *testing.T) {
	// A 3-attribute, 5×4-record slice of I1 (the type-C records over Type,
	// Val, Unit) keeps the candidate product small; exhaustive and
	// heuristic search must agree on cost.
	full := fixture.Instance()
	keep := []int{fixture.Type, fixture.Val, fixture.Unit}
	drop := map[int]bool{}
	for a := 0; a < full.NumAttrs(); a++ {
		drop[a] = true
	}
	for _, a := range keep {
		drop[a] = false
	}
	src := full.Source.DropAttrs(drop).Select([]int{5, 6, 7, 8, 9})
	tgt := full.Target.DropAttrs(drop).Select([]int{2, 7, 8, 9})
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	optimal, optCost, err := baseline.Exhaustive(inst, delta.DefaultCosts)
	if err != nil {
		t.Fatal(err)
	}
	if err := optimal.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := search.Run(context.Background(), inst, withSeed(search.DefaultOptions(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > optCost {
		t.Errorf("heuristic %v worse than optimal %v", res.Cost, optCost)
	}
	if res.Cost < optCost {
		t.Errorf("heuristic %v below certified optimum %v: cost model bug",
			res.Cost, optCost)
	}
}

func TestExhaustiveRefusesHugeProducts(t *testing.T) {
	inst := fixture.Instance() // 7 attributes: product explodes
	if _, _, err := baseline.Exhaustive(inst, delta.DefaultCosts); err == nil {
		t.Error("exhaustive accepted an oversized instance")
	}
}

func withSeed(o search.Options, seed int64) search.Options {
	o.Seed = seed
	return o
}
