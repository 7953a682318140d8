package eval_test

import (
	"context"
	"strings"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/eval"
	"affidavit/internal/gen"
	"affidavit/internal/search"
)

func TestMetricsPerfectRun(t *testing.T) {
	// When the search result *is* the reference, all metrics are 1.
	ds, _ := datasets.Get("iris")
	tab, err := ds.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fake := &search.Result{
		Explanation: p.Reference,
		Cost:        delta.DefaultCosts.Cost(p.Reference),
	}
	dc, dk, acc := eval.Metrics(p, fake, delta.DefaultCosts)
	if dc != 1 || dk != 1 || acc != 1 {
		t.Errorf("metrics = %v %v %v, want 1 1 1", dc, dk, acc)
	}
}

func TestMetricsTrivialRun(t *testing.T) {
	ds, _ := datasets.Get("iris")
	tab, _ := ds.Build(6)
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	triv := delta.Trivial(p.Inst)
	fake := &search.Result{Explanation: triv, Cost: delta.DefaultCosts.Cost(triv)}
	dc, dk, _ := eval.Metrics(p, fake, delta.DefaultCosts)
	if dc != 0 {
		t.Errorf("∆core of trivial = %v, want 0", dc)
	}
	if dk <= 1 {
		t.Errorf("∆costs of trivial = %v, want > 1", dk)
	}
}

// TestRunCellIrisQuality reproduces the iris row of Table 2 at the easy
// setting: both configurations must reach acc ≈ 1 and ∆core ≈ 1.
func TestRunCellIrisQuality(t *testing.T) {
	for cfg, opts := range eval.Configs() {
		cell, err := eval.RunCell(context.Background(), eval.CellSpec{
			Dataset: "iris",
			Setting: gen.Setting{Eta: 0.3, Tau: 0.3},
			Config:  cfg,
			Opts:    opts,
			Seeds:   3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if cell.Acc < 0.95 {
			t.Errorf("%s: acc = %.2f, want ≥ 0.95 (paper: 1.0)", cfg, cell.Acc)
		}
		if cell.DeltaCore < 0.9 || cell.DeltaCore > 1.15 {
			t.Errorf("%s: ∆core = %.2f, want ≈ 1", cfg, cell.DeltaCore)
		}
		if cell.Instances != 3 {
			t.Errorf("Instances = %d", cell.Instances)
		}
	}
}

func TestRunCellUnknownDataset(t *testing.T) {
	if _, err := eval.RunCell(context.Background(), eval.CellSpec{Dataset: "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestTable2SmallGrid(t *testing.T) {
	var progressed int
	cells, err := eval.Table2(context.Background(), eval.Table2Spec{
		Datasets:  []string{"iris", "balance"},
		Instances: 1,
		Settings:  []gen.Setting{{Eta: 0.3, Tau: 0.3}},
		Progress:  func(eval.Cell) { progressed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × 1 setting × 2 configs.
	if len(cells) != 4 || progressed != 4 {
		t.Fatalf("cells = %d, progressed = %d, want 4", len(cells), progressed)
	}
	out := eval.RenderTable2(cells)
	for _, want := range []string{"iris", "balance", "Hs", "Hid", "∆core", "acc"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestTable2Names: without Datasets, Table2 runs every registry dataset
// in order except flight-500k (Figure 5's); with them, exactly those.
func TestTable2Names(t *testing.T) {
	var want []string
	for _, n := range datasets.Names() {
		if n != "flight-500k" {
			want = append(want, n)
		}
	}
	if got := (eval.Table2Spec{}).Names(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("default names %v, want %v", got, want)
	}
	if got := (eval.Table2Spec{Datasets: []string{"iris", "adult"}}).Names(); strings.Join(got, ",") != "iris,adult" {
		t.Errorf("selected names %v, want [iris adult]", got)
	}
}

func TestFigure5Scaled(t *testing.T) {
	points, err := eval.Figure5(context.Background(), eval.Figure5Spec{
		BaseRows: 2000, // scaled-down flight-500k for test budget
		Factors:  []float64{0.5, 1.0},
		Seed:     1,
		Opts:     search.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].Rows >= points[1].Rows {
		t.Errorf("scaling did not reduce rows: %v", points)
	}
	out := eval.RenderFigure5(points)
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "100%") {
		t.Errorf("rendering malformed:\n%s", out)
	}
}

func TestFigure6Scaled(t *testing.T) {
	points, err := eval.Figure6(context.Background(), eval.Figure6Spec{
		Datasets: []string{"plista", "flight-1k"},
		Rows:     map[string]int{"plista": 600, "flight-1k": 600},
		Seed:     2,
		Opts:     search.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	// Sorted by attribute count: plista (43) before flight-1k (75).
	if points[0].Attrs != 43 || points[1].Attrs != 75 {
		t.Errorf("attr counts = %d, %d; want 43, 75", points[0].Attrs, points[1].Attrs)
	}
	out := eval.RenderFigure6(points)
	if !strings.Contains(out, "plista") || !strings.Contains(out, "s/record") {
		t.Errorf("rendering malformed:\n%s", out)
	}
}
