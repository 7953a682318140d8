// Command table2 regenerates the paper's Table 2: both Affidavit
// configurations (Hs and Hid) on every dataset at the three difficulty
// settings, reporting runtime t, relative core size ∆core, relative costs
// ∆costs and cell accuracy acc, macro-averaged over problem instances.
//
// The full paper protocol is -instances 10 -scale 1; the defaults trade
// instance count and large-dataset size for a CI-sized budget: datasets
// above -scale-from rows run at -scale of their size.
//
// Usage:
//
//	table2 -datasets iris,balance -instances 3
//	table2 -instances 10 -scale 1          # the full paper grid
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"affidavit/internal/datasets"
	"affidavit/internal/eval"
)

func main() {
	var (
		names     = flag.String("datasets", "", "comma-separated dataset names (default: all Table 2 datasets)")
		instances = flag.Int("instances", 3, "problem instances per cell (paper: 10)")
		scale     = flag.Float64("scale", 0.1, "row fraction for datasets above -scale-from rows (1 = full size)")
		scaleFrom = flag.Int("scale-from", 30000, "datasets with more rows than this are scaled by -scale")
		seed      = flag.Int64("seed", 1, "base random seed")
	)
	flag.Parse()

	spec := eval.Table2Spec{
		Instances: *instances,
		Seed:      *seed,
		Rows:      map[string]int{},
		Progress: func(c eval.Cell) {
			fmt.Fprintf(os.Stderr, "done %-12s %-14s %-3s  t=%v ∆core=%.2f ∆costs=%.2f acc=%.2f\n",
				c.Dataset, c.Setting, c.Config, c.Time.Round(1e6),
				c.DeltaCore, c.DeltaCosts, c.Acc)
		},
	}
	if *names != "" {
		spec.Datasets = strings.Split(*names, ",")
	}
	if *scale < 1 {
		for name, rows := range datasets.Table2Rows() {
			if rows > *scaleFrom {
				spec.Rows[name] = int(float64(rows) * *scale)
				fmt.Fprintf(os.Stderr, "scaling %s: %d → %d rows\n", name, rows, spec.Rows[name])
			}
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cells, err := eval.Table2(ctx, spec)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "table2: cancelled (interrupt received) after %d cell(s)\n", len(cells))
		} else {
			fmt.Fprintln(os.Stderr, "table2:", err)
		}
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(eval.RenderTable2(cells))
}
