package affidavit_test

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"affidavit"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/eval"
	"affidavit/internal/gen"
	"affidavit/internal/search"
)

// TestPipelineGeneratedInstances drives the full stack — dataset generator →
// workload generator → search → metrics — on several datasets and asserts
// the Table 2 quality bar at the easy setting.
func TestPipelineGeneratedInstances(t *testing.T) {
	for _, name := range []string{"iris", "bridges", "echo", "hepatitis"} {
		ds, err := datasets.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := ds.Build(31)
		if err != nil {
			t.Fatal(err)
		}
		p, err := gen.Generate(tab, gen.Config{
			Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := search.DefaultOptions()
		opts.Seed = 31
		res, err := search.Run(context.Background(), p.Inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Explanation.Validate(); err != nil {
			t.Fatalf("%s: invalid explanation: %v", name, err)
		}
		_, _, acc := eval.Metrics(p, res, delta.DefaultCosts)
		if acc < 0.95 {
			t.Errorf("%s: acc = %.2f, want ≥ 0.95", name, acc)
		}
	}
}

// TestAdversarialValues injects hostile cell content — NUL bytes, long
// runs, separator look-alikes, unicode — and requires a valid explanation
// (not necessarily a clever one).
func TestAdversarialValues(t *testing.T) {
	schema, _ := affidavit.NewSchema("a", "b", "c")
	hostile := []affidavit.Record{
		{"\x00nul", "2:x|", "ünïcode"},
		{strings.Repeat("y", 3000), "", "日本語"},
		{"a|b|c", "1:a", "\x00" + strings.Repeat("0", 50)},
		{"", "", ""},
		{"-0", "0000", "+1"},
	}
	src, err := affidavit.NewTable(schema, hostile)
	if err != nil {
		t.Fatal(err)
	}
	// Target: same rows with one column constant-rewritten and one row gone.
	var tgtRows []affidavit.Record
	for _, r := range hostile[:4] {
		nr := r.Clone()
		nr[2] = "FIXED"
		tgtRows = append(tgtRows, nr)
	}
	tgt, err := affidavit.NewTable(schema, tgtRows)
	if err != nil {
		t.Fatal(err)
	}
	res := explainWith(t, src, tgt, affidavit.WithSeed(13))
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Explanation.CoreSize() < 3 {
		t.Errorf("core = %d, want ≥ 3 (constant rewrite is learnable)",
			res.Explanation.CoreSize())
	}
	// Reports must render hostile content without panicking.
	_ = res.Report()
	_ = res.SQL("hostile")
	_ = res.Diff(0)
}

// TestEmptySnapshots: degenerate shapes must not crash.
func TestEmptySnapshots(t *testing.T) {
	schema, _ := affidavit.NewSchema("a")
	empty, _ := affidavit.NewTable(schema, nil)
	one, _ := affidavit.NewTable(schema, []affidavit.Record{{"x"}})

	cases := []struct {
		name     string
		src, tgt *affidavit.Table
	}{
		{"both-empty", empty, empty},
		{"empty-source", empty, one},
		{"empty-target", one, empty},
		{"single-single", one, one},
	}
	ex := newExplainer(t, affidavit.WithSeed(3))
	for _, c := range cases {
		res, err := ex.Explain(context.Background(), c.src, c.tgt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := res.Explanation.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestAllDuplicateRecords: multisets with heavy duplication stress the
// bijection bookkeeping of Proposition 3.6.
func TestAllDuplicateRecords(t *testing.T) {
	schema, _ := affidavit.NewSchema("k", "v")
	var srcRows, tgtRows []affidavit.Record
	for i := 0; i < 40; i++ {
		srcRows = append(srcRows, affidavit.Record{"same", "100"})
		tgtRows = append(tgtRows, affidavit.Record{"same", "1"})
	}
	tgtRows = tgtRows[:30] // 10 fewer targets
	src, _ := affidavit.NewTable(schema, srcRows)
	tgt, _ := affidavit.NewTable(schema, tgtRows)
	res := explainWith(t, src, tgt, affidavit.WithSeed(17))
	if err := res.Explanation.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Explanation.CoreSize() != 30 || len(res.Explanation.Deleted) != 10 {
		t.Errorf("core = %d deleted = %d, want 30/10",
			res.Explanation.CoreSize(), len(res.Explanation.Deleted))
	}
}

// TestQuickExplainAlwaysValid: for arbitrary small snapshots, Explain
// returns a valid explanation whose cost never exceeds the trivial one.
func TestQuickExplainAlwaysValid(t *testing.T) {
	schema, _ := affidavit.NewSchema("x", "y")
	ex := newExplainer(t, affidavit.WithSeed(1))
	f := func(cells [8]string, nSrc, nTgt uint8) bool {
		srcN := int(nSrc%3) + 1
		tgtN := int(nTgt%3) + 1
		var srcRows, tgtRows []affidavit.Record
		for i := 0; i < srcN; i++ {
			srcRows = append(srcRows, affidavit.Record{cells[i%8], cells[(i+1)%8]})
		}
		for i := 0; i < tgtN; i++ {
			tgtRows = append(tgtRows, affidavit.Record{cells[(i+2)%8], cells[(i+3)%8]})
		}
		src, err := affidavit.NewTable(schema, srcRows)
		if err != nil {
			return false
		}
		tgt, err := affidavit.NewTable(schema, tgtRows)
		if err != nil {
			return false
		}
		res, err := ex.Explain(context.Background(), src, tgt)
		if err != nil {
			return false
		}
		if res.Explanation.Validate() != nil {
			return false
		}
		return res.Cost <= res.TrivialCost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStatsPopulated: search statistics must reflect actual work.
func TestStatsPopulated(t *testing.T) {
	schema, _ := affidavit.NewSchema("k", "v")
	var srcRows, tgtRows []affidavit.Record
	for i := 0; i < 30; i++ {
		k := string(rune('a' + i%26))
		srcRows = append(srcRows, affidavit.Record{k, "v"})
		tgtRows = append(tgtRows, affidavit.Record{k, "w"})
	}
	src, _ := affidavit.NewTable(schema, srcRows)
	tgt, _ := affidavit.NewTable(schema, tgtRows)
	res := explainWith(t, src, tgt)
	if res.Stats.Polls == 0 || res.Stats.Enqueued == 0 {
		t.Errorf("stats empty: %+v", res.Stats)
	}
	if res.Stats.Duration <= 0 {
		t.Error("duration not measured")
	}
}

// TestAlphaExtremes: α=1 ignores function complexity (prefers maximal
// alignment), α→0 prefers cheap functions; both must stay valid.
func TestAlphaExtremes(t *testing.T) {
	schema, _ := affidavit.NewSchema("k", "v")
	var srcRows, tgtRows []affidavit.Record
	for i := 0; i < 20; i++ {
		k := string(rune('a'+i%10)) + string(rune('0'+i/10))
		srcRows = append(srcRows, affidavit.Record{k, "100"})
		tgtRows = append(tgtRows, affidavit.Record{k, "10"})
	}
	src, _ := affidavit.NewTable(schema, srcRows)
	tgt, _ := affidavit.NewTable(schema, tgtRows)
	for _, alpha := range []float64{0.1, 0.9, 1.0} {
		res := explainWith(t, src, tgt, affidavit.WithAlpha(alpha), affidavit.WithSeed(2))
		if err := res.Explanation.Validate(); err != nil {
			t.Fatalf("α=%v: %v", alpha, err)
		}
		if alpha >= 0.9 && res.Explanation.CoreSize() != 20 {
			t.Errorf("α=%v should align everything, core = %d",
				alpha, res.Explanation.CoreSize())
		}
	}
}
