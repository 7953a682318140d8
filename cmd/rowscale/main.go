// Command rowscale regenerates the paper's Figure 5: Hid runtimes on a
// (η=0.3, τ=0.3) problem instance of flight-500k scaled to different
// numbers of records. The expected shape is linear growth, and every run
// should reproduce the reference explanation.
//
// Usage:
//
//	rowscale -base-rows 50000            # scaled-down default
//	rowscale -base-rows 500000           # the paper's full sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"affidavit/internal/cliutil"
	"affidavit/internal/eval"
)

func main() {
	var (
		baseRows = flag.Int("base-rows", 50000, "records at factor 100% (paper: 500000)")
		factors  = flag.String("factors", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "comma-separated scaling factors")
	)
	cfg := cliutil.Register(flag.CommandLine, cliutil.Defaults{Seed: 1})
	diag := cliutil.RegisterDiag(flag.CommandLine)
	flag.Parse()

	var fs []float64
	for _, tok := range strings.Split(*factors, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rowscale: bad factor %q: %v\n", tok, err)
			os.Exit(2)
		}
		fs = append(fs, f)
	}
	// Ctrl-C cancels the sweep cooperatively between (and within) runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts, err := cfg.SearchOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rowscale:", err)
		os.Exit(2)
	}
	diag.StartPprof()
	traceLog, err := diag.OpenTraceLog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rowscale:", err)
		os.Exit(2)
	}
	defer traceLog.Close()
	// Every sweep point's run appends one structured trace line.
	ctx = cfg.Observe(ctx, traceLog)
	points, err := eval.Figure5(ctx, eval.Figure5Spec{
		BaseRows: *baseRows,
		Factors:  fs,
		Seed:     *cfg.Seed,
		Opts:     opts,
		Progress: func(p eval.ScalePoint) {
			fmt.Fprintf(os.Stderr, "done %3.0f%% (%d rows): %v\n",
				p.Factor*100, p.Rows, p.Time.Round(1e6))
		},
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "rowscale: cancelled (interrupt received) after %d point(s)\n", len(points))
		} else {
			fmt.Fprintln(os.Stderr, "rowscale:", err)
		}
		os.Exit(1)
	}
	fmt.Println()
	fmt.Print(eval.RenderFigure5(points))
}
