// Command attrscale regenerates the paper's Figure 6: Hid runtimes at
// (η=0.3, τ=0.3), normalised by record count, against the attribute counts
// of the four widest datasets (fd-red-30, plista, flight-1k, uniprot). The
// expected shape is roughly linear growth of per-record time in |A|.
//
// Usage:
//
//	attrscale                       # fd-red-30 scaled to 25000 rows
//	attrscale -fd-red-rows 250000   # the paper's full size
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"affidavit/internal/cliutil"
	"affidavit/internal/eval"
)

func main() {
	fdRows := flag.Int("fd-red-rows", 25000, "fd-red-30 record count (paper: 250000)")
	cfg := cliutil.Register(flag.CommandLine, cliutil.Defaults{Seed: 1})
	diag := cliutil.RegisterDiag(flag.CommandLine)
	flag.Parse()

	// Ctrl-C cancels the sweep cooperatively between (and within) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := cfg.SearchOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrscale:", err)
		os.Exit(2)
	}
	diag.StartPprof()
	traceLog, err := diag.OpenTraceLog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrscale:", err)
		os.Exit(2)
	}
	defer traceLog.Close()
	// Every dataset's run appends one structured trace line.
	ctx = cfg.Observe(ctx, traceLog)
	points, err := eval.Figure6(ctx, eval.Figure6Spec{
		Rows: map[string]int{"fd-red-30": *fdRows},
		Seed: *cfg.Seed,
		Opts: opts,
		Progress: func(p eval.AttrPoint) {
			fmt.Fprintf(os.Stderr, "done %-12s |A|=%d: %v\n",
				p.Dataset, p.Attrs, p.Time.Round(1e6))
		},
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "attrscale: cancelled (interrupt received) after %d point(s)\n", len(points))
		} else {
			fmt.Fprintln(os.Stderr, "attrscale:", err)
		}
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(eval.RenderFigure6(points))
}
