package affidavit_test

import (
	"context"
	"encoding/json"
	"testing"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
)

// budgetRows caps dataset sizes so the full-registry sweep stays fast under
// the race detector.
func budgetRows(spec datasets.Spec) int {
	rows := spec.Rows
	if rows > 600 {
		rows = 600
	}
	if spec.DataAttrs > 40 && rows > 150 {
		rows = 150
	}
	return rows
}

// explanationBytes encodes everything seed-determined about a result —
// explanation, SQL, costs — while zeroing the stats, whose timings differ
// between runs.
func explanationBytes(t *testing.T, res *affidavit.Result) []byte {
	t.Helper()
	jr := res.JSONResult("mem_budget")
	jr.Stats = affidavit.JSONStats{}
	b, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSpillEquivalence pins the two stubs the frozen service benchmark
// still calls: on every registry dataset, a tiny WithMemBudget leaves the
// explanation bytes equal to the unbudgeted run's, and Stats.SpilledBytes
// is 0 either way.
func TestSpillEquivalence(t *testing.T) {
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			tab, err := spec.BuildRows(budgetRows(spec), 7)
			if err != nil {
				t.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := affidavit.New(affidavit.WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			budgeted, err := affidavit.New(affidavit.WithSeed(3), affidavit.WithMemBudget(8<<10))
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
			if err != nil {
				t.Fatal(err)
			}
			got, err := budgeted.Explain(context.Background(), p.Inst.Source, p.Inst.Target)
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.SpilledBytes != 0 || got.Stats.SpilledBytes != 0 {
				t.Fatalf("SpilledBytes %d unbudgeted, %d budgeted; want 0 and 0",
					want.Stats.SpilledBytes, got.Stats.SpilledBytes)
			}
			wb, gb := explanationBytes(t, want), explanationBytes(t, got)
			if string(wb) != string(gb) {
				t.Errorf("budgeted explanation differs from unbudgeted one\nwant %s\ngot  %s", wb, gb)
			}
		})
	}
}
