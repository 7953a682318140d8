// Package cliutil is the one shared configuration path of the two
// search-running cmds, affidavit and affidavitd: both register the same
// search flags here and turn them into functional options for
// affidavit.New, and their runs' observers into one context — so flag
// names, defaults, zero-value semantics and the -progress observer cannot
// drift between binaries.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"affidavit"
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

// Observe returns ctx carrying the -progress narrator writing to stderr,
// when set, and a collector that folds each run under the context into a
// trace handed to onTrace, when onTrace is non-nil — the observers every
// run of the cmd reports to. The collector expects runs one after another
// (a sweep, a chain of steps).
func (f *Flags) Observe(ctx context.Context, stderr io.Writer, onTrace func(*affidavit.Trace)) context.Context {
	if *f.Progress {
		ctx = affidavit.ContextWithObserver(ctx, affidavit.NewProgressObserver(stderr))
	}
	if onTrace != nil {
		ctx = affidavit.ContextWithObserver(ctx, affidavit.NewTraceCollector(onTrace))
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
