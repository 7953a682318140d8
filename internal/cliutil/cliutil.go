// Package cliutil is the one shared configuration path of the cmds: every
// CLI registers the same search flags here and turns them into either an
// affidavit.Explainer (functional options) or a raw search.Options (for
// the internal eval drivers), and its runs' observers into one context —
// so flag names, defaults, zero-value semantics and the -progress
// observer cannot drift between binaries.
package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profiling handlers
	"os"
	"strings"
	"sync"

	"affidavit"
	"affidavit/internal/search"
)

// Flags holds the registered flag values. Zero int/float flags mean "the
// configuration default", matching the historical cmd behaviour.
type Flags struct {
	Start    *string
	Alpha    *float64
	Beta     *int
	Rho      *int
	Theta    *float64
	Conf     *float64
	MaxBlock *int
	Seed     *int64
	Progress *bool
}

// Defaults parameterises per-cmd flag defaults.
type Defaults struct {
	Seed int64
}

// Register installs the shared search flags on fs.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	return &Flags{
		Start:    fs.String("start", "hid", "start strategy: hid | hs | empty"),
		Alpha:    fs.Float64("alpha", 0.5, "cost parameter α in [0,1]"),
		Beta:     fs.Int("beta", 0, "branching factor β (0 = config default)"),
		Rho:      fs.Int("rho", 0, "queue width ϱ (0 = config default)"),
		Theta:    fs.Float64("theta", 0.1, "estimated effect fraction θ"),
		Conf:     fs.Float64("conf", 0.95, "sampling confidence ρ"),
		MaxBlock: fs.Int("max-block", 100000, "overlap-matching block threshold (hs)"),
		Seed:     fs.Int64("seed", d.Seed, "random seed (equal seeds give equal explanations)"),
		Progress: fs.Bool("progress", false, "narrate pipeline progress (ingest, polls, phases) on stderr"),
	}
}

// Diag holds the shared diagnostics flags. They live in their own struct
// (and RegisterDiag call) rather than in Flags because affidavitd defines
// its own -pprof flag; only the one-shot CLIs register these.
type Diag struct {
	TraceOut *string
	Pprof    *string
}

// RegisterDiag installs the shared diagnostics flags on fs.
func RegisterDiag(fs *flag.FlagSet) *Diag {
	return &Diag{
		TraceOut: fs.String("trace-out", "", "append each run's structured trace (stage wall-clock spans, poll cost curve) as a JSON line to this file"),
		Pprof:    fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the process lifetime"),
	}
}

// StartPprof starts the profiling listener when -pprof was set. Listener
// failures are reported on stderr; they never stop the run itself.
func (d *Diag) StartPprof() {
	addr := *d.Pprof
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "pprof:", err)
		}
	}()
}

// OpenTraceLog opens the -trace-out sink, or returns nil when the flag is
// unset. The nil TraceLog is a valid no-op receiver, so call sites need no
// conditionals.
func (d *Diag) OpenTraceLog() (*TraceLog, error) {
	if *d.TraceOut == "" {
		return nil, nil
	}
	f, err := os.OpenFile(*d.TraceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("-trace-out: %w", err)
	}
	return &TraceLog{f: f, enc: json.NewEncoder(f)}, nil
}

// TraceLog appends structured run traces to a file, one JSON object per
// line. Safe for concurrent appends; a nil *TraceLog is a no-op.
type TraceLog struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// Append writes one trace as a JSONL line. Nil receivers and nil traces
// are no-ops.
func (l *TraceLog) Append(tr *affidavit.Trace) error {
	if l == nil || tr == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.enc.Encode(tr)
}

// Close flushes and closes the log file.
func (l *TraceLog) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}

// Observe returns ctx carrying the -progress narrator on stderr, when set,
// and a collector that folds each run under the context into a trace
// appended to log, when log is non-nil — the observers every run of the
// cmd reports to. The collector expects runs one after another (a sweep,
// one explanation); append failures surface on stderr rather than
// aborting an otherwise-healthy sweep.
func (f *Flags) Observe(ctx context.Context, log *TraceLog) context.Context {
	if *f.Progress {
		ctx = affidavit.ContextWithObserver(ctx, affidavit.NewProgressObserver(os.Stderr))
	}
	if log != nil {
		ctx = affidavit.ContextWithObserver(ctx, affidavit.NewTraceCollector(func(tr *affidavit.Trace) {
			if err := log.Append(tr); err != nil {
				fmt.Fprintln(os.Stderr, "trace-out:", err)
			}
		}))
	}
	return ctx
}

// Options turns the parsed flags into functional options for affidavit.New,
// appending any extra options after the flag-derived ones (so callers can
// override). Observers are not options: they ride each run's context
// (Observe).
func (f *Flags) Options(extra ...affidavit.Option) ([]affidavit.Option, error) {
	opts := []affidavit.Option{}
	switch strings.ToLower(*f.Start) {
	case "hid":
		opts = append(opts, affidavit.WithStart(affidavit.StartID))
	case "hs":
		opts = append(opts, affidavit.WithOverlapConfig())
	case "empty":
		opts = append(opts, affidavit.WithStart(affidavit.StartEmpty))
	default:
		return nil, fmt.Errorf("unknown start strategy %q", *f.Start)
	}
	opts = append(opts,
		affidavit.WithAlpha(*f.Alpha),
		affidavit.WithTheta(*f.Theta),
		affidavit.WithRho(*f.Conf),
		affidavit.WithMaxBlockSize(*f.MaxBlock),
		affidavit.WithSeed(*f.Seed),
	)
	if *f.Beta > 0 {
		opts = append(opts, affidavit.WithBeta(*f.Beta))
	}
	if *f.Rho > 0 {
		opts = append(opts, affidavit.WithQueueWidth(*f.Rho))
	}
	return append(opts, extra...), nil
}

// Explainer builds the Explainer the flags describe.
func (f *Flags) Explainer(extra ...affidavit.Option) (*affidavit.Explainer, error) {
	opts, err := f.Options(extra...)
	if err != nil {
		return nil, err
	}
	return affidavit.New(opts...)
}

// SearchOptions turns the parsed flags into a search.Options for the
// internal eval drivers (rowscale, attrscale). It applies the same
// start-strategy mapping as Options.
func (f *Flags) SearchOptions() (search.Options, error) {
	var so search.Options
	switch strings.ToLower(*f.Start) {
	case "hid":
		so = search.DefaultOptions()
	case "hs":
		so = search.OverlapOptions()
	case "empty":
		so = search.DefaultOptions()
		so.Start = search.StartEmpty
	default:
		return so, fmt.Errorf("unknown start strategy %q", *f.Start)
	}
	so.Alpha = *f.Alpha
	if *f.Beta > 0 {
		so.Beta = *f.Beta
	}
	if *f.Rho > 0 {
		so.QueueWidth = *f.Rho
	}
	so.Induce.Theta = *f.Theta
	so.Induce.Rho = *f.Conf
	so.MaxBlockSize = *f.MaxBlock
	so.Seed = *f.Seed
	return so, nil
}
