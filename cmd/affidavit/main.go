// Command affidavit explains the differences between two CSV snapshots of
// the same table without requiring a record alignment or stable primary
// keys.
//
// Usage:
//
//	affidavit -source before.csv -target after.csv [flags]
//
// The report lists the learned per-attribute transformation functions, the
// aligned core, and the records explained as deleted/inserted. With -sql a
// migration script is printed; with -diff N the first N aligned records are
// shown as before/after views; with -json the result is emitted in the
// same stable encoding affidavitd serves; with -progress the pipeline
// narrates ingest and search progress on stderr; with -trace-out the run's
// structured trace (per-stage wall-clock spans, the poll cost curve) is
// appended to a JSONL file; with -pprof a net/http/pprof
// listener serves profiling data for the process lifetime.
//
// Snapshots are streamed: each CSV is interned into the columnar backend
// row by row, so memory is bounded by the distinct values, not the file
// sizes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"affidavit"
	"affidavit/internal/cliutil"
)

func main() {
	var (
		source  = flag.String("source", "", "source snapshot CSV (required)")
		target  = flag.String("target", "", "target snapshot CSV (required)")
		sqlName = flag.String("sql", "", "emit a migration script for this table name")
		diff    = flag.Int("diff", 0, "show the first N aligned records as before/after")
		asJSON  = flag.Bool("json", false, "emit the stable JSON encoding (explanation, SQL, stats) instead of the text report")
	)
	cfg := cliutil.Register(flag.CommandLine, cliutil.Defaults{})
	diag := cliutil.RegisterDiag(flag.CommandLine)
	flag.Parse()
	if *source == "" || *target == "" {
		fmt.Fprintln(os.Stderr, "affidavit: -source and -target are required")
		flag.Usage()
		os.Exit(2)
	}
	diag.StartPprof()
	traceLog, err := diag.OpenTraceLog()
	if err != nil {
		fmt.Fprintln(os.Stderr, "affidavit:", err)
		os.Exit(2)
	}
	defer traceLog.Close()

	ex, err := cfg.Explainer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "affidavit:", err)
		os.Exit(2)
	}

	// Ctrl-C cancels the search cooperatively: the run stops within about
	// one poll instead of dying mid-write, and we exit non-zero below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx = cfg.Observe(ctx, nil)
	rec := affidavit.NewTraceRecorder()
	if traceLog != nil {
		ctx = affidavit.ContextWithObserver(ctx, rec)
	}

	res, err := ex.ExplainFiles(ctx, *source, *target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "affidavit:", err)
		os.Exit(1)
	}
	if res.Stats.Cancelled {
		fmt.Fprintln(os.Stderr, "affidavit: cancelled (interrupt received); partial result discarded")
		os.Exit(1)
	}
	if err := traceLog.Append(rec.Trace()); err != nil {
		fmt.Fprintln(os.Stderr, "affidavit: trace-out:", err)
	}
	if *asJSON {
		out, err := res.JSON(*sqlName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "affidavit:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		fmt.Println()
		return
	}
	fmt.Print(res.Report())
	fmt.Printf("search: %d polls, %d states costed, %v\n",
		res.Stats.Polls, res.Stats.StatesGenerated, res.Stats.Duration.Round(1e6))
	// Empty snapshots explain for free (cost 0 of trivial 0); guard the
	// ratio like the JSON encoding does.
	compression := 0.0
	if res.TrivialCost > 0 {
		compression = 100 * res.Cost / res.TrivialCost
	}
	fmt.Printf("compression: cost %g vs trivial %g (%.0f%%)\n",
		res.Cost, res.TrivialCost, compression)
	if *diff > 0 {
		fmt.Println()
		fmt.Print(res.Diff(*diff))
	}
	if *sqlName != "" {
		fmt.Println()
		fmt.Print(res.SQL(*sqlName))
	}
}
