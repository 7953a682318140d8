// Command affidavit explains the differences between two CSV snapshots of
// the same table without requiring a record alignment or stable primary
// keys, and reproduces the paper's evaluation.
//
// Usage:
//
//	affidavit -source before.csv -target after.csv [flags]
//	affidavit gen -dataset iris -eta 0.3 -tau 0.3 -out /tmp/inst
//	affidavit table2 -datasets iris,balance -instances 3
//	affidavit rowscale -base-rows 50000
//	affidavit attrscale -fd-red-rows 250000
//
// Without a subcommand, the report lists the learned per-attribute
// transformation functions, the aligned core, and the records explained
// as deleted/inserted. With -sql a migration script is printed; with
// -diff N the first N aligned records are shown as before/after views;
// with -json the result is emitted in the same stable encoding affidavitd
// serves. Snapshots are streamed: each CSV is interned into the columnar
// backend row by row, so memory is bounded by the distinct values, not
// the file sizes.
//
// The subcommands are the paper's Section 5 drivers: gen writes one
// problem instance of the Section 5.1 generator, table2 regenerates the
// quality grid of Table 2, and rowscale and attrscale the scaling curves
// of Figures 5 and 6.
//
// The explain path, rowscale and attrscale take the search flags and
// -progress (narrate ingest and search progress on stderr), -trace-out
// (append each run's structured trace — per-stage wall-clock spans, the
// poll cost curve — to a JSONL file) and -pprof (serve net/http/pprof for
// the process lifetime). A command whose result cannot be written to
// stdout exits 1; a bad command line exits 2.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profiling handlers
	"os"
	"os/signal"
	"strings"
	"syscall"

	"affidavit"
	"affidavit/internal/cliutil"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A command registers its flags on fs and returns what runs once they
// are parsed. The result goes to stdout, narration to stderr.
type command func(fs *flag.FlagSet, stdout, stderr io.Writer) func(context.Context) error

var subcommands = map[string]command{
	"gen":       generate,
	"table2":    table2,
	"rowscale":  rowscale,
	"attrscale": attrscale,
}

// usageError is a bad command line: run prints it, then the flag usage
// when withUsage is set, and exits 2.
type usageError struct {
	error
	withUsage bool
}

// run runs the command that args name — explain when they start with a
// flag — and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "affidavit", explain
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		var ok bool
		if cmd, ok = subcommands[args[0]]; !ok {
			fmt.Fprintf(stderr, "affidavit: unknown subcommand %q (want gen, table2, rowscale or attrscale)\n", args[0])
			return 2
		}
		name, args = "affidavit "+args[0], args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := cmd(fs, stdout, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Ctrl-C cancels a run cooperatively: it stops within about one poll
	// instead of dying mid-write, and the command exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := exec(ctx)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, name+":", err)
	var usage usageError
	if !errors.As(err, &usage) {
		return 1
	}
	if usage.withUsage {
		fs.Usage()
	}
	return 2
}

func explain(fs *flag.FlagSet, stdout, stderr io.Writer) func(context.Context) error {
	var (
		source  = fs.String("source", "", "source snapshot CSV (required)")
		target  = fs.String("target", "", "target snapshot CSV (required)")
		sqlName = fs.String("sql", "", "emit a migration script for this table name")
		diff    = fs.Int("diff", 0, "show the first N aligned records as before/after")
		asJSON  = fs.Bool("json", false, "emit the stable JSON encoding (explanation, SQL, stats) instead of the text report")
	)
	cfg := cliutil.Register(fs, cliutil.Defaults{})
	diag := registerDiag(fs)
	return func(ctx context.Context) error {
		if *source == "" || *target == "" {
			return usageError{errors.New("-source and -target are required"), true}
		}
		traceFile, err := diag.open(stderr)
		if err != nil {
			return err
		}
		if traceFile != nil {
			defer traceFile.Close()
		}
		opts, err := cfg.Options()
		if err != nil {
			return usageError{error: err}
		}
		ex, err := affidavit.New(opts...)
		if err != nil {
			return usageError{error: err}
		}

		ctx = cfg.Observe(ctx, stderr, nil)
		rec := affidavit.NewTraceRecorder()
		if traceFile != nil {
			ctx = affidavit.ContextWithObserver(ctx, rec)
		}
		res, err := ex.ExplainFiles(ctx, *source, *target)
		if err != nil {
			return err
		}
		if res.Stats.Cancelled {
			return errors.New("cancelled (interrupt received); partial result discarded")
		}
		if sink := traceSink(traceFile, stderr); sink != nil {
			sink(rec.Trace())
		}
		if *asJSON {
			out, err := res.JSON(*sqlName)
			if err != nil {
				return err
			}
			_, err = stdout.Write(append(out, '\n'))
			return err
		}
		var b strings.Builder
		b.WriteString(res.Report())
		fmt.Fprintf(&b, "search: %d polls, %d states costed, %v\n",
			res.Stats.Polls, res.Stats.StatesGenerated, res.Stats.Duration.Round(1e6))
		// Empty snapshots explain for free (cost 0 of trivial 0); guard
		// the ratio like the JSON encoding does.
		compression := 0.0
		if res.TrivialCost > 0 {
			compression = 100 * res.Cost / res.TrivialCost
		}
		fmt.Fprintf(&b, "compression: cost %g vs trivial %g (%.0f%%)\n",
			res.Cost, res.TrivialCost, compression)
		if *diff > 0 {
			b.WriteString("\n" + res.Diff(*diff))
		}
		if *sqlName != "" {
			b.WriteString("\n" + res.SQL(*sqlName))
		}
		_, err = io.WriteString(stdout, b.String())
		return err
	}
}

// diag holds the diagnostics flags of the explain path and the scaling
// sweeps. affidavitd defines its own -pprof, so these stay out of
// cliutil.
type diag struct {
	traceOut, pprof *string
}

func registerDiag(fs *flag.FlagSet) diag {
	return diag{
		traceOut: fs.String("trace-out", "", "append each run's structured trace (stage wall-clock spans, poll cost curve) as a JSON line to this file"),
		pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the process lifetime"),
	}
}

// open starts the -pprof listener when the flag is set, and opens the
// -trace-out file for appending, nil when that flag is unset. Listener
// failures are reported on stderr; they never stop the run itself.
func (d diag) open(stderr io.Writer) (*os.File, error) {
	if addr := *d.pprof; addr != "" {
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(stderr, "pprof:", err)
			}
		}()
	}
	if *d.traceOut == "" {
		return nil, nil
	}
	f, err := os.OpenFile(*d.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, usageError{error: fmt.Errorf("-trace-out: %w", err)}
	}
	return f, nil
}

// traceSink appends each run trace to the -trace-out file f as one JSON
// line, or is nil when f is. Append failures surface on stderr rather
// than abort an otherwise-healthy run.
func traceSink(f *os.File, stderr io.Writer) func(*affidavit.Trace) {
	if f == nil {
		return nil
	}
	enc := json.NewEncoder(f)
	return func(tr *affidavit.Trace) {
		if err := enc.Encode(tr); err != nil {
			fmt.Fprintln(stderr, "trace-out:", err)
		}
	}
}
