package affidavit_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affidavit"
	"affidavit/internal/fixture"
)

func figure1Tables(t *testing.T) (*affidavit.Table, *affidavit.Table) {
	t.Helper()
	s, err := affidavit.NewSchema("ID1", "ID2", "Date", "Type", "Val", "Unit", "Org")
	if err != nil {
		t.Fatal(err)
	}
	src, err := affidavit.NewTable(s, fixture.SourceRows())
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := affidavit.NewTable(s, fixture.TargetRows())
	if err != nil {
		t.Fatal(err)
	}
	return src, tgt
}

func TestExplainRunningExample(t *testing.T) {
	src, tgt := figure1Tables(t)
	res := explainWith(t, src, tgt, affidavit.WithSeed(1))
	if res.Cost != fixture.ReferenceCost {
		t.Errorf("cost = %v, want %d", res.Cost, fixture.ReferenceCost)
	}
	if res.TrivialCost != fixture.TrivialCost {
		t.Errorf("trivial cost = %v, want %d", res.TrivialCost, fixture.TrivialCost)
	}
	if res.Explanation.CoreSize() != 13 {
		t.Errorf("core = %d, want 13", res.Explanation.CoreSize())
	}
	if !strings.Contains(res.Report(), "x ↦ x / 1000") {
		t.Error("report missing learned division")
	}
	if !strings.Contains(res.SQL("t"), "UPDATE") {
		t.Error("SQL export empty")
	}
	if !strings.Contains(res.Diff(1), "↦") {
		t.Error("diff view empty")
	}
}

// TestTransformGeneralises: the learned explanation must transform an
// unseen record — the paper's "additional full system conversions can be
// avoided" benefit.
func TestTransformGeneralises(t *testing.T) {
	src, tgt := figure1Tables(t)
	res := explainWith(t, src, tgt, affidavit.WithSeed(1))
	unseen := affidavit.Record{"S99", "0099", "20190101", "G", "123000", "USD", "NEWCO"}
	got := res.Transform(unseen)
	// Val ÷ 1000, Unit constant; unseen keys pass through the mappings.
	if got[4] != "123" {
		t.Errorf("Val = %q, want 123", got[4])
	}
	if got[5] != "k $" {
		t.Errorf("Unit = %q, want k $", got[5])
	}
	if got[3] != "G" || got[6] != "NEWCO" {
		t.Error("identity attributes altered")
	}
}

func TestExplainCSVRoundTrip(t *testing.T) {
	src, tgt := figure1Tables(t)
	dir := t.TempDir()
	sp := filepath.Join(dir, "source.csv")
	tp := filepath.Join(dir, "target.csv")
	writeCSV(t, sp, src)
	writeCSV(t, tp, tgt)
	ex := newExplainer(t, affidavit.WithSeed(1))
	ctx := context.Background()
	res, err := ex.ExplainFiles(ctx, sp, tp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != fixture.ReferenceCost {
		t.Errorf("cost via CSV = %v, want %d", res.Cost, fixture.ReferenceCost)
	}
	if _, err := ex.ExplainFiles(ctx, "/missing.csv", tp); err == nil {
		t.Error("missing source accepted")
	}
	if _, err := ex.ExplainFiles(ctx, sp, "/missing.csv"); err == nil {
		t.Error("missing target accepted")
	}
}

func writeCSV(t *testing.T, path string, tab *affidavit.Table) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tab.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
}

func TestExplainSchemaMismatch(t *testing.T) {
	s1, _ := affidavit.NewSchema("a")
	s2, _ := affidavit.NewSchema("b")
	t1, _ := affidavit.NewTable(s1, []affidavit.Record{{"x"}})
	t2, _ := affidavit.NewTable(s2, []affidavit.Record{{"x"}})
	ex := newExplainer(t)
	if _, err := ex.Explain(context.Background(), t1, t2); err == nil {
		t.Error("schema mismatch accepted")
	}
}
